package runtime

import (
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
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
		padded := tensor.New(in.Dim(0), in.Dim(1)+2*c.Pad, in.Dim(2)+2*c.Pad)
		codegen.PadInto(in, padded, c.Pad)
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

// covers runs one fork of n on p and reports whether every index ran exactly
// once.
func covers(p *Pool, n int) bool {
	hits := make([]int32, n)
	p.ParallelFor(n, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for _, h := range hits {
		if h != 1 {
			return false
		}
	}
	return true
}

// TestParallelForConcurrentForks: eight goroutines fork at once on two
// pools of widths 3 and 2, and every fork covers every index exactly once.
// Run under -race, this is the check on the claim protocol: a helper reading
// a finished fork's fields, or claiming a chunk of the next one, would double
// or drop an index.
func TestParallelForConcurrentForks(t *testing.T) {
	pools := []*Pool{NewPool(3), NewPool(2)}
	for _, p := range pools {
		defer p.Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := 1 + (g*7+i)%40; !covers(pools[(g+i)%2], n) {
					t.Errorf("goroutine %d fork %d: [0,%d) not covered exactly once", g, i, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// onWorker reports whether the calling goroutine is one of a team's workers
// (as opposed to a goroutine that called ParallelFor).
func onWorker() bool {
	pcs := make([]uintptr, 32)
	frames := goruntime.CallersFrames(pcs[:goruntime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*team).work") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestParallelForPanicOnWorkerAndCaller forces each of a two-chunk fork's
// chunks onto a different goroutine — the first to start waits for the
// second — and panics in the worker's chunk, then in the caller's. Both
// panics reach the caller with their value, and the pool keeps working.
func TestParallelForPanicOnWorkerAndCaller(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, where := range []string{"worker", "caller"} {
		var started atomic.Int32
		second := make(chan struct{})
		got := func() (r any) {
			defer func() { r = recover() }()
			p.ParallelFor(2, func(start, end int) {
				if started.Add(1) == 1 {
					<-second
				} else {
					close(second)
				}
				if onWorker() == (where == "worker") {
					panic("boom on " + where)
				}
			})
			return nil
		}()
		if got != "boom on "+where {
			t.Fatalf("panic on the %s: recovered %v", where, got)
		}
		if !covers(p, 64) {
			t.Fatalf("pool unusable after a panic on the %s", where)
		}
	}
}

// TestPoolWorkersExit: Close returns once every worker has exited, and a
// pool nobody references any more stops its workers without being closed.
func TestPoolWorkersExit(t *testing.T) {
	p := NewPool(3)
	if !covers(p, 16) {
		t.Fatal("fork before Close")
	}
	tm := p.team
	p.Close()
	select {
	case <-tm.done:
	default:
		t.Fatal("Close returned with workers still running")
	}
	if !covers(p, 16) {
		t.Fatal("a closed pool must still run forks, on the caller")
	}

	released := func() *team {
		p := NewPool(3)
		covers(p, 16)
		return p.team
	}()
	for i := 0; ; i++ {
		goruntime.GC()
		select {
		case <-released.done:
			return
		default:
		}
		if i == 1000 {
			t.Fatal("workers of an unreachable pool never stopped")
		}
		goruntime.Gosched()
	}
}
