package simd

import (
	"math"
	"math/rand"
	"testing"
)

// runFixture is one run-kernel problem: a dst of n pixels and a source of
// chans channels, both cut out of larger backing arrays at odd offsets (so
// neither is vector-aligned) with guard floats around dst.
type runFixture struct {
	n, chStride int
	tapOff      [4]int
	ch16        []uint16
	ch32        []int32
	w           []float32
	q           []int8
	scale       float32
	src         []float32
	dstBack     []float32 // guard | dst[0:n] | guard
}

const runGuard = 9 // an odd guard keeps dst off any 16- or 32-byte boundary

func newRunFixture(rng *rand.Rand, n, nk int) *runFixture {
	const chans = 7
	f := &runFixture{n: n, scale: 0.002 + rng.Float32()*0.05}
	maxTap := 0
	for t := range f.tapOff {
		f.tapOff[t] = rng.Intn(2*n + 3)
		maxTap = max(maxTap, f.tapOff[t])
	}
	f.chStride = maxTap + n + 1 + rng.Intn(4)
	f.src = randSlice(rng, 1+chans*f.chStride)[1:]
	f.dstBack = randSlice(rng, n+2*runGuard)
	for k := 0; k < nk; k++ {
		c := rng.Intn(chans)
		f.ch16 = append(f.ch16, uint16(c))
		f.ch32 = append(f.ch32, int32(c))
	}
	f.w = randSlice(rng, 4*nk)
	f.q = make([]int8, 4*nk)
	for i := range f.q {
		f.q[i] = int8(rng.Intn(255) - 127)
	}
	return f
}

// run executes one kernel form of set k on a copy of the fixture's dst and
// returns the copy, guards included.
func (f *runFixture) run(k Kernels, form string) []float32 {
	back := append([]float32(nil), f.dstBack...)
	dst := &back[runGuard]
	switch form {
	case "run4":
		k.Run4(dst, f.n, &f.src[0], f.chStride, f.ch16, f.w, &f.tapOff)
	case "run4q8":
		k.Run4Q8(dst, f.n, &f.src[0], f.chStride, f.ch16, f.q, f.scale, &f.tapOff)
	case "run1":
		// T = 1 reads one weight per kernel and no tap offset; the span a
		// channel needs is only n, well inside chStride.
		k.Run1(dst, f.n, &f.src[0], f.chStride, f.ch32, f.w[:len(f.ch32)])
	}
	return back
}

// tol bounds the reassociation + FMA-rounding difference by the magnitude of
// the terms summed: inputs and weights are in [-1, 1] (levels × scale for Q8).
func (f *runFixture) tol(form string) float64 {
	terms := float64(4 * len(f.ch16))
	if form == "run1" {
		terms /= 4
	}
	if form == "run4q8" {
		terms *= 127 * float64(f.scale)
	}
	return 1e-6 * (1 + terms)
}

var runForms = []string{"run4", "run4q8", "run1"}

// checkRun compares got against want over dst and requires the guards on
// both sides to be untouched.
func checkRun(t *testing.T, f *runFixture, form, who string, want, got []float32) {
	t.Helper()
	for i := range got {
		inside := i >= runGuard && i < runGuard+f.n
		if !inside && got[i] != f.dstBack[i] {
			t.Fatalf("%s %s n=%d nk=%d: wrote outside dst at %d", who, form, f.n, len(f.ch16), i-runGuard)
		}
	}
	if d := maxAbsDiff(want, got); d > f.tol(form) {
		t.Fatalf("%s %s n=%d nk=%d: max diff %g vs generic (tolerance %g)", who, form, f.n, len(f.ch16), d, f.tol(form))
	}
}

// TestRunKernelsAsmMatchGeneric pins the assembly run kernels to their
// generic twins over every block/tail combination of n (16-, 8-, 4-blocks
// and the masked 1–3 tail, and the empty plane), kernel counts on both sides of the T = 1 quad
// boundary including the empty list, and unaligned dst and base.
func TestRunKernelsAsmMatchGeneric(t *testing.T) {
	if bestSet.Name == "generic" {
		t.Skip("no asm kernels in this build")
	}
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 72; n++ { // n = 0 must touch nothing
		for nk := 0; nk <= 40; nk++ {
			f := newRunFixture(rng, n, nk)
			for _, form := range runForms {
				checkRun(t, f, form, bestSet.Name, f.run(genericSet, form), f.run(bestSet, form))
			}
		}
	}
}

// TestRunKernelsAgainstDefinition holds the generic twins themselves to the
// contract's plain double sum, in float64.
func TestRunKernelsAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 5, 16, 23, 64, 70} {
		for _, nk := range []int{1, 3, 4, 9} {
			f := newRunFixture(rng, n, nk)
			for _, form := range runForms {
				want := append([]float32(nil), f.dstBack...)
				for i := 0; i < n; i++ {
					var sum float64
					for k, c := range f.ch16 {
						if form == "run1" {
							sum += float64(f.w[k]) * float64(f.src[int(c)*f.chStride+i])
							continue
						}
						for t, off := range f.tapOff {
							wt := float64(f.w[4*k+t])
							if form == "run4q8" {
								wt = float64(f.scale) * float64(f.q[4*k+t])
							}
							sum += wt * float64(f.src[int(c)*f.chStride+off+i])
						}
					}
					want[runGuard+i] += float32(sum)
				}
				checkRun(t, f, form, "generic-vs-definition", want, f.run(genericSet, form))
			}
		}
	}
}

// TestRunKernelsDoNotAllocate: the drivers call these once per (filter, run)
// through func values; a kernel that made its arguments escape would put an
// allocation on every call.
func TestRunKernelsDoNotAllocate(t *testing.T) {
	f := newRunFixture(rand.New(rand.NewSource(67)), 16, 6)
	back := append([]float32(nil), f.dstBack...)
	k := Active()
	if allocs := testing.AllocsPerRun(50, func() {
		k.Run4(&back[runGuard], f.n, &f.src[0], f.chStride, f.ch16, f.w, &f.tapOff)
		k.Run4Q8(&back[runGuard], f.n, &f.src[0], f.chStride, f.ch16, f.q, f.scale, &f.tapOff)
		k.Run1(&back[runGuard], f.n, &f.src[0], f.chStride, f.ch32, f.w[:len(f.ch32)])
	}); allocs != 0 {
		t.Errorf("%s run kernels allocate %.1f objects per call", k.Name, allocs)
	}
}

// FuzzRunKernels derives a run-kernel problem from the fuzzed bytes and
// requires the build's best set and the generic twins to agree. Run with:
//
//	go test -fuzz=FuzzRunKernels -fuzztime=20s ./internal/simd
func FuzzRunKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(18))
	f.Add(int64(2), uint8(4), uint8(1))
	f.Add(int64(3), uint8(63), uint8(0))
	f.Add(int64(-4), uint8(71), uint8(37))
	f.Add(int64(5), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nSel, nkSel uint8) {
		fx := newRunFixture(rand.New(rand.NewSource(seed)), 1+int(nSel)%96, int(nkSel)%48)
		for _, form := range runForms {
			want := fx.run(genericSet, form)
			for i, v := range want {
				if math.IsNaN(float64(v)) {
					t.Fatalf("generic %s produced NaN at %d", form, i)
				}
			}
			checkRun(t, fx, form, bestSet.Name, want, fx.run(bestSet, form))
		}
	})
}
