package runtime

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/tensor"
)

func testPlan(t testing.TB, level codegen.Level) (*codegen.Plan, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	w := tensor.New(12, 8, 3, 3)
	w.Randn(rng, 1)
	geom := pruned.ConvGeom{Stride: 1, Pad: 1, InH: 14, InW: 10, OutH: 14, OutW: 10}
	c := pruned.FromWeights("rt", w, pattern.Canonical(8), 40, geom)
	plan, err := codegen.Compile(c, level, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(8, 14, 10)
	in.Randn(rng, 1)
	return plan, in
}

func TestParallelForCoversRange(t *testing.T) {
	p := NewPool(4)
	var covered [100]int32
	p.ParallelFor(100, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	p := NewPool(8)
	ran := false
	p.ParallelFor(0, func(s, e int) { ran = true })
	if ran {
		t.Fatal("ParallelFor(0) must not call fn")
	}
	var n int32
	p.ParallelFor(1, func(s, e int) { atomic.AddInt32(&n, int32(e-s)) })
	if n != 1 {
		t.Fatalf("ParallelFor(1) covered %d", n)
	}
	if NewPool(0).Workers() < 1 {
		t.Fatal("pool must default to >= 1 worker")
	}
}

func TestParallelForFewerItemsThanWorkers(t *testing.T) {
	p := NewPool(8)
	var covered [3]int32
	p.ParallelFor(len(covered), func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestParallelForNegativeN(t *testing.T) {
	p := NewPool(4)
	p.ParallelFor(-5, func(s, e int) { t.Error("fn called for negative n") })
}

func TestParallelForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if r != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, r)
				}
			}()
			p.ParallelFor(64, func(s, e int) {
				if s == 0 {
					panic("boom")
				}
			})
		}()
	}
}

func TestParallelForPanicStillCoversOtherChunks(t *testing.T) {
	// A panicking chunk must not prevent the other workers from finishing
	// (the pool waits for all goroutines before re-raising).
	p := NewPool(4)
	var n int32
	func() {
		defer func() { recover() }()
		p.ParallelFor(100, func(s, e int) {
			if s == 0 {
				panic("boom")
			}
			atomic.AddInt32(&n, int32(e-s))
		})
	}()
	if n == 0 {
		t.Fatal("no other chunk ran to completion")
	}
}

// TestParallelForSplitMatchesSequential: a layer's output channels split
// across workers with ParallelFor + ExecuteRange — how the graph executor
// parallelizes a conv — must equal the one-shot sequential Execute, at every
// optimization level and pool width.
func TestParallelForSplitMatchesSequential(t *testing.T) {
	for _, level := range codegen.AllLevels() {
		plan, in := testPlan(t, level)
		c := plan.Conv
		bias := make([]float32, c.OutC)
		for i := range bias {
			bias[i] = float32(i) * 0.1
		}
		want := plan.Execute(in, bias)
		padded := plan.PadInput(in)
		for _, workers := range []int{1, 2, 4, 8} {
			got := tensor.New(c.OutC, c.OutH, c.OutW)
			for oc := 0; oc < c.OutC; oc++ {
				plane := got.Data[oc*c.OutH*c.OutW : (oc+1)*c.OutH*c.OutW]
				for i := range plane {
					plane[i] = bias[oc]
				}
			}
			NewPool(workers).ParallelFor(c.OutC, func(start, end int) {
				plan.ExecuteRange(padded, got, start, end)
			})
			if !got.AllClose(want, 1e-4) {
				t.Fatalf("level %v workers %d: parallel diff %g",
					level, workers, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestMeasureReturnsNonNegative(t *testing.T) {
	ms := Measure(3, func() {})
	if ms < 0 {
		t.Fatalf("negative time %f", ms)
	}
}

// TestMeasureKeepsSubMillisecond: the average must not be truncated to whole
// milliseconds of total time — three 0.2 ms calls used to read 0. The wait
// spins instead of sleeping because it never returns early (so 0.2 ms is a
// lower bound whatever the machine is doing) and, unlike time.Sleep on a
// coarse-timer kernel, does not overshoot to a millisecond either.
func TestMeasureKeepsSubMillisecond(t *testing.T) {
	wait := func() {
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	}
	if ms := Measure(3, wait); ms < 0.2 {
		t.Fatalf("Measure of a 200µs wait = %g ms, want >= 0.2", ms)
	}
}

func TestPoolLimit(t *testing.T) {
	p := NewPool(8)
	cases := []struct{ n, want int }{
		{4, 4}, {8, 8}, {12, 8}, {0, 1}, {-3, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := p.Limit(c.n).Workers(); got != c.want {
			t.Fatalf("NewPool(8).Limit(%d).Workers() = %d, want %d", c.n, got, c.want)
		}
	}
	// Full-width limit returns the pool itself (no pointless copy).
	if p.Limit(8) != p {
		t.Fatal("Limit(width) should return the same pool")
	}
	// A limited pool still covers the whole range, with at most n chunks
	// in flight: ParallelFor correctness is width-independent.
	lp := p.Limit(2)
	var covered [64]int32
	lp.ParallelFor(64, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("limited pool: index %d covered %d times", i, c)
		}
	}
}
