package simd

import (
	"math"
	"math/rand"
	"testing"
)

// tileCase exercises ragged and aligned geometries: cols spanning sub-lane,
// exact-lane, and lane+tail widths for both 4- and 8-wide vector units.
var tileCases = []struct{ cols, rows, dstStride, srcStride int }{
	{1, 1, 1, 1},
	{3, 2, 5, 7},
	{4, 3, 4, 9},
	{7, 4, 8, 11},
	{8, 2, 8, 8},
	{9, 3, 16, 13},
	{16, 5, 17, 19},
	{23, 7, 31, 29},
	{56, 4, 56, 58},
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestTile4AsmMatchesGeneric(t *testing.T) {
	if bestSet.Tile4 == nil {
		t.Skip("no asm kernels in this build")
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range tileCases {
		dstLen := (tc.rows-1)*tc.dstStride + tc.cols
		srcLen := (tc.rows-1)*tc.srcStride + tc.cols
		want := randSlice(rng, dstLen)
		got := append([]float32(nil), want...)
		var srcs [4][]float32
		var ptrs [4]*float32
		for i := range srcs {
			srcs[i] = randSlice(rng, srcLen)
			ptrs[i] = &srcs[i][0]
		}
		w := [4]float32{rng.Float32(), -rng.Float32(), rng.Float32(), rng.Float32()}
		genericSet.Tile4(&want[0], tc.dstStride, &ptrs, tc.srcStride, &w, tc.cols, tc.rows)
		bestSet.Tile4(&got[0], tc.dstStride, &ptrs, tc.srcStride, &w, tc.cols, tc.rows)
		if d := maxAbsDiff(want, got); d > 1e-6 {
			t.Fatalf("tile4 %+v: asm vs generic max diff %g", tc, d)
		}
	}
}

func TestTile8AsmMatchesGeneric(t *testing.T) {
	if bestSet.Tile8 == nil {
		t.Skip("no asm kernels in this build")
	}
	rng := rand.New(rand.NewSource(43))
	for _, tc := range tileCases {
		dstLen := (tc.rows-1)*tc.dstStride + tc.cols
		srcLen := (tc.rows-1)*tc.srcStride + tc.cols
		want := randSlice(rng, dstLen)
		got := append([]float32(nil), want...)
		var srcs [8][]float32
		var ptrs [8]*float32
		for i := range srcs {
			srcs[i] = randSlice(rng, srcLen)
			ptrs[i] = &srcs[i][0]
		}
		var w [8]float32
		for i := range w {
			w[i] = rng.Float32()*2 - 1
		}
		genericSet.Tile8(&want[0], tc.dstStride, &ptrs, tc.srcStride, &w, tc.cols, tc.rows)
		bestSet.Tile8(&got[0], tc.dstStride, &ptrs, tc.srcStride, &w, tc.cols, tc.rows)
		if d := maxAbsDiff(want, got); d > 1e-6 {
			t.Fatalf("tile8 %+v: asm vs generic max diff %g", tc, d)
		}
	}
}

func TestForceGeneric(t *testing.T) {
	defer ForceGeneric(false)
	ForceGeneric(true)
	if Active().Name != "generic" {
		t.Fatalf("ForceGeneric(true): Active().Name = %q, want generic", Active().Name)
	}
	ForceGeneric(false)
	if Active().Name != bestSet.Name && bestSet.Tile4 != nil {
		t.Fatalf("ForceGeneric(false): Active().Name = %q, want %q", Active().Name, bestSet.Name)
	}
}

func TestGenericAlwaysComplete(t *testing.T) {
	g := Generic()
	if g.Tile4 == nil || g.Tile8 == nil || g.Run4 == nil || g.Run4Q8 == nil || g.Run1 == nil || g.Name != "generic" {
		t.Fatalf("generic kernel set incomplete: %+v", g)
	}
}
