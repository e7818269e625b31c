package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"patdnn/internal/tensor"
)

func TestNewAndEntries(t *testing.T) {
	p := New(3, 4, 1, 3, 5)
	if p.Entries() != 4 {
		t.Fatalf("Entries = %d, want 4", p.Entries())
	}
	if !p.Has(4) || p.Has(0) {
		t.Fatal("Has wrong")
	}
	want := []int{1, 3, 4, 5}
	got := p.Indices()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(3, 9) },
		func() { New(3, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestString(t *testing.T) {
	p := New(3, 1, 3, 4, 5)
	if s := p.String(); s != ".x./xxx/..." {
		t.Fatalf("String = %q", s)
	}
	if s := Empty.String(); s != ".../.../..." {
		t.Fatalf("Empty String = %q", s)
	}
}

func TestAllNatural(t *testing.T) {
	all := AllNatural()
	if len(all) != 56 {
		t.Fatalf("|natural| = %d, want 56", len(all))
	}
	seen := make(map[uint16]bool)
	for _, p := range all {
		if p.Entries() != 4 {
			t.Fatalf("pattern %v has %d entries", p, p.Entries())
		}
		if !p.HasCenter() {
			t.Fatalf("pattern %v lacks center", p)
		}
		if seen[p.Mask] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p.Mask] = true
	}
}

func TestNaturalKeepsTopMagnitudes(t *testing.T) {
	kernel := []float32{9, 1, 8, 0, 0.5, 0, 7, 0, 0}
	p := Natural(kernel)
	// Center (pos 4) always kept; then 9(pos0), 8(pos2), 7(pos6).
	for _, pos := range []int{0, 2, 4, 6} {
		if !p.Has(pos) {
			t.Fatalf("pattern %v should keep pos %d", p, pos)
		}
	}
}

func TestNaturalDeterministicTieBreak(t *testing.T) {
	kernel := []float32{1, 1, 1, 1, 5, 1, 1, 1, 1} // all ties
	p1 := Natural(kernel)
	p2 := Natural(kernel)
	if p1.Mask != p2.Mask {
		t.Fatal("tie-break not deterministic")
	}
	// Lowest positions win: 0,1,2 + center.
	for _, pos := range []int{0, 1, 2, 4} {
		if !p1.Has(pos) {
			t.Fatalf("tie-break pattern %v", p1)
		}
	}
}

func TestApplyAndRetainedNorm(t *testing.T) {
	kernel := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	p := New(3, 0, 4, 8)
	cp := make([]float32, 9)
	copy(cp, kernel)
	p.Apply(cp)
	if cp[0] != 1 || cp[4] != 5 || cp[8] != 9 {
		t.Fatalf("Apply cleared kept weights: %v", cp)
	}
	if cp[1] != 0 || cp[7] != 0 {
		t.Fatalf("Apply kept pruned weights: %v", cp)
	}
	want := 1.0 + 25 + 81
	got := p.RetainedNorm(kernel)
	if d := got*got - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("RetainedNorm^2 = %v, want %v", got*got, want)
	}
	// Projection hot path (every kernel × pattern): no slice per call.
	if allocs := testing.AllocsPerRun(100, func() { got = p.RetainedNorm(kernel) }); allocs != 0 {
		t.Fatalf("RetainedNorm allocates %.0f times per call", allocs)
	}
}

func TestBestPicksMaxNorm(t *testing.T) {
	kernel := []float32{10, 0, 0, 0, 1, 0, 0, 0, 10}
	set := []Pattern{
		New(3, 4, 1, 3, 5), // cross arms: norm^2 = 1
		New(3, 4, 0, 8, 2), // corners incl both 10s: norm^2 = 201
	}
	if got := Best(kernel, set); got.Mask != set[1].Mask {
		t.Fatalf("Best chose %v", got)
	}
}

func TestProjectZeroesOutside(t *testing.T) {
	kernel := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	set := Canonical(8)
	p := Project(kernel, set)
	for pos, v := range kernel {
		if p.Has(pos) && v == 0 {
			t.Fatalf("kept position %d zeroed", pos)
		}
		if !p.Has(pos) && v != 0 {
			t.Fatalf("pruned position %d kept (%v)", pos, v)
		}
	}
}

// Property: projection is idempotent and never increases the L2 norm.
func TestProjectProperties(t *testing.T) {
	set := Canonical(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kernel := make([]float32, 9)
		for i := range kernel {
			kernel[i] = float32(rng.NormFloat64())
		}
		var before float64
		for _, v := range kernel {
			before += float64(v) * float64(v)
		}
		p1 := Project(kernel, set)
		var after float64
		for _, v := range kernel {
			after += float64(v) * float64(v)
		}
		if after > before+1e-9 {
			return false
		}
		cp := make([]float32, 9)
		copy(cp, kernel)
		p2 := Project(cp, set)
		if p1.Mask != p2.Mask {
			return false
		}
		for i := range cp {
			if cp[i] != kernel[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalSets(t *testing.T) {
	for _, k := range []int{4, 6, 8, 12} {
		set := Canonical(k)
		if len(set) != k {
			t.Fatalf("Canonical(%d) has %d patterns", k, len(set))
		}
		seen := make(map[uint16]bool)
		for _, p := range set {
			if p.Entries() != 4 || !p.HasCenter() {
				t.Fatalf("bad canonical pattern %v", p)
			}
			if seen[p.Mask] {
				t.Fatalf("duplicate canonical pattern %v", p)
			}
			seen[p.Mask] = true
		}
	}
	// The highest-scoring patterns keep all arms orthogonal to the center.
	top := Canonical(4)
	for _, p := range top {
		for _, pos := range p.Indices() {
			if pos != 4 && pos != 1 && pos != 3 && pos != 5 && pos != 7 {
				t.Fatalf("top canonical pattern %v uses diagonal %d", p, pos)
			}
		}
	}
	// Canonical(6) is a prefix of Canonical(12): consistent ranking.
	c6, c12 := Canonical(6), Canonical(12)
	for i := range c6 {
		if c6[i].Mask != c12[i].Mask {
			t.Fatal("Canonical sets are not prefix-consistent")
		}
	}
}

func TestHistogramAndTopK(t *testing.T) {
	// Construct a weight tensor where one natural pattern dominates.
	w := tensor.New(4, 3, 3, 3)
	for oc := 0; oc < 4; oc++ {
		for ic := 0; ic < 3; ic++ {
			off := (oc*3 + ic) * 9
			// Cross pattern strong everywhere except one kernel.
			for _, pos := range []int{1, 3, 4, 5} {
				w.Data[off+pos] = 5
			}
		}
	}
	// One odd kernel with corners dominant.
	for _, pos := range []int{0, 2, 4, 6} {
		w.Data[pos] = 9
	}
	w.Data[1], w.Data[3], w.Data[5] = 0, 0, 0
	h := Histogram(w)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 12 {
		t.Fatalf("histogram counted %d kernels, want 12", total)
	}
	top := TopK(h, 1)
	want := New(3, 1, 3, 4, 5)
	if top[0].Mask != want.Mask {
		t.Fatalf("TopK = %v, want %v", top[0], want)
	}
}

func TestHistogramIgnoresNon3x3(t *testing.T) {
	w1 := tensor.New(2, 2, 1, 1)
	h := Histogram(w1)
	if len(h) != 0 {
		t.Fatal("1x1 kernels must not contribute")
	}
}

func TestDesignSetFillsFromCanonical(t *testing.T) {
	// A model with a single kernel has one natural pattern; DesignSet(8)
	// must still return 8 distinct patterns.
	w := tensor.New(1, 1, 3, 3)
	for i := range w.Data {
		w.Data[i] = float32(i)
	}
	set := DesignSet(8, w)
	if len(set) != 8 {
		t.Fatalf("DesignSet returned %d patterns", len(set))
	}
	seen := make(map[uint16]bool)
	for _, p := range set {
		if seen[p.Mask] {
			t.Fatal("duplicate in designed set")
		}
		seen[p.Mask] = true
	}
}

func TestIDOf(t *testing.T) {
	set := Canonical(8)
	if IDOf(set[0], set) != 1 || IDOf(set[7], set) != 8 {
		t.Fatal("IDOf wrong for members")
	}
	if IDOf(Empty, set) != 0 {
		t.Fatal("IDOf(Empty) must be 0")
	}
}
