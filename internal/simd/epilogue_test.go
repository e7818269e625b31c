package simd

import (
	"math"
	"math/rand"
	"testing"
)

// epilogueSpecials are the float32 bit patterns where Init's add and ReLU's
// max have something to get wrong: both zeros, both infinities, quiet and
// signalling NaNs of either sign with payloads, subnormals and the extremes.
var epilogueSpecials = []uint32{
	0x00000000, 0x80000000, 0x3f800000, 0xbf800000,
	0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fa12345, 0xffe54321,
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00800000, 0x80800000,
	0x7f7fffff, 0xff7fffff,
}

// epilogueValue draws a special half of the time, else any bit pattern or an
// ordinary pre-activation.
func epilogueValue(rng *rand.Rand) float32 {
	switch rng.Intn(4) {
	case 0, 1:
		return math.Float32frombits(epilogueSpecials[rng.Intn(len(epilogueSpecials))])
	case 2:
		return math.Float32frombits(rng.Uint32())
	}
	return float32(rng.NormFloat64())
}

// epilogueCase is one epilogue problem: dst is n elements at offset off into
// a backing array with guards on both sides, src (nil or n elements) sits at
// its own offset, so neither start is vector-aligned in general.
type epilogueCase struct {
	back   []float32
	off, n int
	src    []float32
	b      float32
}

func newEpilogueCase(rng *rand.Rand, n, off int, withSrc bool, b float32) *epilogueCase {
	ec := &epilogueCase{back: make([]float32, runGuard+off+n+runGuard), off: off, n: n, b: b}
	for i := range ec.back {
		ec.back[i] = epilogueValue(rng)
	}
	if withSrc {
		so := rng.Intn(8)
		src := make([]float32, so+n)
		for i := range src {
			src[i] = epilogueValue(rng)
		}
		ec.src = src[so:]
	}
	return ec
}

// run applies one operation of set k to a copy of the backing array.
func (ec *epilogueCase) run(k Kernels, op string) []float32 {
	back := append([]float32(nil), ec.back...)
	dst := back[runGuard+ec.off : runGuard+ec.off+ec.n]
	if op == "init" {
		k.Init(dst, ec.src, ec.b)
	} else {
		k.ReLU(dst)
	}
	return back
}

// checkEpilogue requires got to equal want bit for bit, guards included
// (want is the backing array before the call outside dst).
func checkEpilogue(t *testing.T, ec *epilogueCase, op, who string, want, got []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %s n=%d off=%d src=%v b=%#x: element %d is %#08x, want %#08x", who, op, ec.n, ec.off, ec.src != nil,
				math.Float32bits(ec.b), i-runGuard-ec.off, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// reluDefinition is the contract's ReLU on one element: a NaN keeps its
// payload with the sign cleared, −0 and every negative become +0.
func reluDefinition(x float32) float32 {
	switch {
	case x != x:
		return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
	case x > 0:
		return x
	}
	return 0
}

// TestEpilogueKernelsMatchGeneric pins the build's best Init and ReLU to
// their generic twins bit for bit over every length 0–70 (the 32-, 8-, 4-
// and scalar steps and all their combinations), eight start offsets, with
// and without a source, and biases drawn from the specials.
func TestEpilogueKernelsMatchGeneric(t *testing.T) {
	if bestSet.Name == "generic" {
		t.Skip("no asm kernels in this build")
	}
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			for _, withSrc := range []bool{false, true} {
				ec := newEpilogueCase(rng, n, off, withSrc, epilogueValue(rng))
				for _, op := range []string{"init", "relu"} {
					checkEpilogue(t, ec, op, bestSet.Name, ec.run(genericSet, op), ec.run(bestSet, op))
				}
			}
		}
	}
}

// TestEpilogueGenericAgainstDefinition holds the generic twins to the
// contract as the package doc states it, element by element, so a change in
// how the compiler lowers max or + cannot move both sets together unseen.
func TestEpilogueGenericAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 31, 32, 45, 70} {
		for _, withSrc := range []bool{false, true} {
			ec := newEpilogueCase(rng, n, n%8, withSrc, epilogueValue(rng))
			wantInit := append([]float32(nil), ec.back...)
			wantReLU := append([]float32(nil), ec.back...)
			for i := 0; i < n; i++ {
				j := runGuard + ec.off + i
				wantInit[j] = ec.b
				if withSrc {
					wantInit[j] = ec.src[i] + ec.b
				}
				wantReLU[j] = reluDefinition(ec.back[j])
			}
			checkEpilogue(t, ec, "init", "generic-vs-definition", wantInit, ec.run(genericSet, "init"))
			checkEpilogue(t, ec, "relu", "generic-vs-definition", wantReLU, ec.run(genericSet, "relu"))
		}
	}
}

// TestReLUMatchesBranchLoop holds both sets' ReLU to the compare-and-store
// loop the drivers once ran, over the float32 bit space at a prime stride
// plus the specials: equal on every non-NaN input with −0 and negatives
// landing on +0 exactly, and every NaN staying a NaN.
func TestReLUMatchesBranchLoop(t *testing.T) {
	var vals []float32
	for _, b := range epilogueSpecials {
		vals = append(vals, math.Float32frombits(b))
	}
	for b := uint64(0); b < 1<<32; b += 4099 {
		vals = append(vals, math.Float32frombits(uint32(b)))
	}
	for _, k := range []Kernels{genericSet, bestSet} {
		got := append([]float32(nil), vals...)
		k.ReLU(got)
		for i, v := range vals {
			if v != v {
				if got[i] == got[i] {
					t.Fatalf("%s: NaN %#08x came out as %g", k.Name, math.Float32bits(v), got[i])
				}
				continue
			}
			want := v
			if v <= 0 {
				want = 0
			}
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("%s: ReLU(%g [%#08x]) = %#08x, the branch loop gives %#08x", k.Name, v, math.Float32bits(v),
					math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}
}

// TestEpilogueKernelsDoNotAllocate: the drivers call these once per output
// plane (or 1×1 pixel block) through func values.
func TestEpilogueKernelsDoNotAllocate(t *testing.T) {
	ec := newEpilogueCase(rand.New(rand.NewSource(79)), 45, 3, true, 0.5)
	dst := ec.back[runGuard+ec.off : runGuard+ec.off+ec.n]
	k := Active()
	if allocs := testing.AllocsPerRun(50, func() {
		k.Init(dst, nil, 0.25)
		k.Init(dst, ec.src, 0.25)
		k.ReLU(dst)
	}); allocs != 0 {
		t.Errorf("%s epilogue kernels allocate %.1f objects per call", k.Name, allocs)
	}
}

// FuzzEpilogueKernels derives an epilogue problem — length, start offset,
// source or none, the bias's bit pattern, and values that are special half
// the time — from the fuzzed bytes, and requires the build's best set to
// match the generic twins bit for bit on both operations. Run with:
//
//	go test -run '^$' -fuzz=FuzzEpilogueKernels -fuzztime=20s ./internal/simd
func FuzzEpilogueKernels(f *testing.F) {
	f.Add(int64(1), uint8(70), uint8(0), true, uint32(0x3e800000))
	f.Add(int64(2), uint8(33), uint8(3), false, uint32(0x80000000))
	f.Add(int64(3), uint8(7), uint8(5), true, uint32(0x7fa00001))
	f.Add(int64(4), uint8(44), uint8(1), true, uint32(0xffc00000))
	f.Add(int64(5), uint8(0), uint8(2), true, uint32(0x00000001))
	f.Add(int64(6), uint8(12), uint8(7), false, uint32(0xff800000))
	f.Fuzz(func(t *testing.T, seed int64, nSel, offSel uint8, withSrc bool, bBits uint32) {
		rng := rand.New(rand.NewSource(seed))
		ec := newEpilogueCase(rng, int(nSel)%71, int(offSel)%8, withSrc, math.Float32frombits(bBits))
		for _, op := range []string{"init", "relu"} {
			checkEpilogue(t, ec, op, bestSet.Name, ec.run(genericSet, op), ec.run(bestSet, op))
		}
	})
}
