package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// idleLane builds an interactive lane for the tiny model whose loop is not
// running: a test fills the queue through the real admission path and steps
// the loop body itself, so what a sweep contains never depends on a clock.
func idleLane(t *testing.T, cfg Config) (*Engine, *lane) {
	t.Helper()
	eng := tinyEngine(t, cfg)
	cm, err := eng.compiled("tiny", "synthetic", false)
	if err != nil {
		t.Fatal(err)
	}
	return eng, newLane(eng, cm, ClassInteractive)
}

// queueCall admits one call for tinyInput(seed) into ln.
func queueCall(t *testing.T, ln *lane, ctx ctxDone, seed int) *call {
	t.Helper()
	in, err := ln.cm.inputTensor(tinyInput(seed))
	if err != nil {
		t.Fatal(err)
	}
	c := &call{ctx: ctx, input: in, resp: make(chan batchResult, 1), enqueued: time.Now()}
	if err := ln.enqueue(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// answered returns c's result, failing if the last step did not deliver one.
func answered(t *testing.T, c *call) batchResult {
	t.Helper()
	select {
	case r := <-c.resp:
		return r
	default:
		t.Fatal("call was not answered by the sweep")
		return batchResult{}
	}
}

// laggingCtx is a context whose deadline has passed but whose timer has not
// fired yet: Err is still nil. The sweep filter must go by the clock.
type laggingCtx struct{ deadline time.Time }

func (c laggingCtx) Err() error                  { return nil }
func (c laggingCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestCancelledCallShedNotCompleted is the regression test for the
// cancelled-call leak: a call whose context is done while it sits in the queue
// must be dropped from the sweep (a deadline shed), not executed, and the call
// queued behind it rides a batch of one.
func TestCancelledCallShedNotCompleted(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  ctxDone
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
		{"expired, timer lagging", laggingCtx{time.Now().Add(-time.Second)}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ln := idleLane(t, Config{Workers: 1, MaxBatch: 2})
			dead := queueCall(t, ln, tc.ctx, 0)
			live := queueCall(t, ln, context.Background(), 1)
			if !ln.step() {
				t.Fatal("step reported a closed lane")
			}
			if r := answered(t, dead); r.err != tc.want || r.out != nil {
				t.Fatalf("dead call answered %+v, want error %v and no output", r, tc.want)
			}
			if r := answered(t, live); r.err != nil || r.size != 1 {
				t.Fatalf("surviving call: err %v, batch of %d; want a batch of 1", r.err, r.size)
			}
			s := eng.Stats()
			if s.DeadlineSheds != 1 || s.Batches != 1 || s.AvgBatch != 1 || s.ExpiredExecuted != 0 {
				t.Fatalf("DeadlineSheds=%d Batches=%d AvgBatch=%g ExpiredExecuted=%d, want 1/1/1/0",
					s.DeadlineSheds, s.Batches, s.AvgBatch, s.ExpiredExecuted)
			}
			if got := ln.bytes.Load(); got != 0 {
				t.Fatalf("lane still holds %d reserved bytes after the sweep", got)
			}
		})
	}
}

// TestLaneSweepsWhatIsQueued pins work-conserving dispatch: a step takes the
// calls already queued, at most MaxBatch of them and in arrival order, and
// never waits for more.
func TestLaneSweepsWhatIsQueued(t *testing.T) {
	const maxBatch, queued = 4, 6
	ref := tinyEngine(t, Config{Workers: 1, MaxBatch: 1})
	eng, ln := idleLane(t, Config{Workers: 2, MaxBatch: maxBatch})
	calls := make([]*call, queued)
	for i := range calls {
		calls[i] = queueCall(t, ln, context.Background(), i)
	}
	for lo := 0; lo < queued; lo += maxBatch {
		hi := min(lo+maxBatch, queued)
		ln.step()
		for i, c := range calls {
			if i < lo {
				continue
			}
			if i >= hi {
				if len(c.resp) != 0 {
					t.Fatalf("call %d answered by the sweep of calls %d..%d", i, lo, hi-1)
				}
				continue
			}
			r := answered(t, c)
			if r.err != nil || r.size != hi-lo {
				t.Fatalf("call %d: err %v, batch of %d, want %d", i, r.err, r.size, hi-lo)
			}
			want, err := ref.Infer(context.Background(),
				Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(i)})
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range r.out.Data {
				if v != want.Output[j] {
					t.Fatalf("call %d: output[%d] = %g, want %g (its own input's)", i, j, v, want.Output[j])
				}
			}
		}
	}
	if s := eng.Stats(); s.Batches != 2 || s.BatchedRequests != queued || s.AvgBatch != queued/2 {
		t.Fatalf("Batches=%d BatchedRequests=%d AvgBatch=%g, want 2/%d/%d",
			s.Batches, s.BatchedRequests, s.AvgBatch, queued, queued/2)
	}

	// One queued call sweeps alone: a step that waited for company would hang
	// here, since nothing else ever arrives.
	lone := queueCall(t, ln, context.Background(), 0)
	ln.step()
	if r := answered(t, lone); r.err != nil || r.size != 1 {
		t.Fatalf("lone call: err %v, batch of %d, want 1", r.err, r.size)
	}
}

// TestClosedLaneDrainsAndExits: closing a lane's queue fails no admitted
// call — the loop sweeps what is left, then reports the lane finished.
func TestClosedLaneDrainsAndExits(t *testing.T) {
	_, ln := idleLane(t, Config{Workers: 1, MaxBatch: 2})
	calls := make([]*call, 3)
	for i := range calls {
		calls[i] = queueCall(t, ln, context.Background(), i)
	}
	close(ln.ch)
	for _, want := range []int{2, 1} {
		if !ln.step() {
			t.Fatalf("lane exited with calls queued")
		}
		for _, c := range calls[:want] {
			if r := answered(t, c); r.err != nil || r.size != want {
				t.Fatalf("draining sweep: err %v, batch of %d, want %d", r.err, r.size, want)
			}
		}
		calls = calls[want:]
	}
	if ln.step() {
		t.Fatal("a closed, drained lane must end its loop")
	}
}

// TestQueuedDeadlineExpiryShedsBeforeSweep covers the whole deadline plumbing
// (Request.TimeoutMs → ctx → sweep filter): the request expires while it is
// queued behind a running sweep and never reaches compute.
func TestQueuedDeadlineExpiryShedsBeforeSweep(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1, MaxBatch: 2})
	release := stallLane(t, eng, ClassInteractive)
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", TimeoutMs: 25}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired call returned %v, want DeadlineExceeded", err)
	}
	release()

	// Queued behind the expired call, so once it is answered the lane has
	// been through both.
	r, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", Input: tinyInput(2)})
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchSize != 1 {
		t.Fatalf("batch size %d, want 1", r.BatchSize)
	}
	s := eng.Stats()
	if s.DeadlineSheds != 1 || s.ExpiredExecuted != 0 || s.Batches != 2 {
		t.Fatalf("DeadlineSheds=%d ExpiredExecuted=%d Batches=%d, want 1/0/2 (the stall and the survivor)",
			s.DeadlineSheds, s.ExpiredExecuted, s.Batches)
	}
}

// TestDeadRequestNeverEnqueued: a request that is already cancelled at
// admission is shed without touching a queue.
func TestDeadRequestNeverEnqueued(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, Request{Network: "tiny", Dataset: "synthetic"}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s := eng.Stats()
	if s.DeadlineSheds != 1 || s.Batches != 0 {
		t.Fatalf("DeadlineSheds=%d Batches=%d, want 1/0", s.DeadlineSheds, s.Batches)
	}
}

// stallLane parks a lane inside a sweep: the planted call's unbuffered resp
// channel blocks result delivery until the returned release func runs, giving
// tests a deterministic window in which the lane consumes nothing.
func stallLane(t *testing.T, eng *Engine, class Class) (release func()) {
	t.Helper()
	cm, err := eng.compiled("tiny", "synthetic", false)
	if err != nil {
		t.Fatal(err)
	}
	bt := eng.batcherFor(cm)
	in, err := cm.inputTensor(nil)
	if err != nil {
		t.Fatal(err)
	}
	stall := &call{ctx: context.Background(), input: in,
		resp: make(chan batchResult), enqueued: time.Now()}
	bt.lanes[class].ch <- stall
	// Wait until the lane has dequeued the stall call and is blocked
	// delivering its result (queue observably empty, nothing else queued).
	deadline := time.Now().Add(5 * time.Second)
	for len(bt.lanes[class].ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lane never dequeued the stall call")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the sweep reach the resp send
	return func() { <-stall.resp }
}

// TestOverloadShedsFastWithBoundedQueue pins the load-shedding contract:
// with the batch lane stalled and its bounded queue full, the next request is
// rejected immediately with ErrOverloaded — no blocking, no unbounded growth
// — and the shed shows up in Stats with its class, while the queue snapshot
// proves the depth never exceeded the configured bound.
func TestOverloadShedsFastWithBoundedQueue(t *testing.T) {
	const depth = 2
	eng := tinyEngine(t, Config{Workers: 1, MaxBatch: 1, QueueDepth: depth})
	release := stallLane(t, eng, ClassBatch)

	// Fill the bounded queue to capacity behind the stalled sweep.
	results := make(chan error, depth)
	for i := 0; i < depth; i++ {
		go func(i int) {
			_, err := eng.Infer(context.Background(), Request{
				Network: "tiny", Dataset: "synthetic", Class: "batch", Input: tinyInput(i)})
			results <- err
		}(i)
	}
	waitForQueueDepth(t, eng, "batch", depth)

	// The queue is full: the next batch-class request must shed fast.
	start := time.Now()
	_, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", Class: "batch"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v, want fast-fail", d)
	}
	s := eng.Stats()
	if s.Shed != 1 || s.ShedByClass["batch"] != 1 {
		t.Fatalf("Shed=%d ShedByClass=%v, want 1/batch:1", s.Shed, s.ShedByClass)
	}
	var found bool
	for _, q := range s.Queues {
		if q.Class != "batch" {
			continue
		}
		found = true
		if q.Capacity != depth || q.Depth > q.Capacity || q.Peak > q.Capacity {
			t.Fatalf("queue stat out of bounds: %+v", q)
		}
		if q.Depth != depth {
			t.Fatalf("queue depth %d, want %d (full behind the stalled sweep)", q.Depth, depth)
		}
	}
	if !found {
		t.Fatalf("no batch-class queue stat: %+v", s.Queues)
	}

	// Interactive traffic is unaffected by the saturated batch lane: the
	// classes are separate lanes, so batch backlog cannot starve it.
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic"}); err != nil {
		t.Fatalf("interactive request behind saturated batch lane: %v", err)
	}

	release()
	for i := 0; i < depth; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request after release: %v", err)
		}
	}
}

func waitForQueueDepth(t *testing.T, eng *Engine, class string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, q := range eng.Stats().Queues {
			if q.Class == class && q.Depth == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s queue never reached depth %d: %+v", class, want, eng.Stats().Queues)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Class
		ok   bool
	}{{"", ClassInteractive, true}, {"interactive", ClassInteractive, true},
		{"batch", ClassBatch, true}, {"bulk", 0, false}} {
		got, err := ParseClass(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Fatalf("ParseClass(%q) = %v, %v", c.in, got, err)
		}
	}
	eng := tinyEngine(t, Config{Workers: 1})
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", Class: "bulk"}); err == nil ||
		!strings.Contains(err.Error(), "unknown class") {
		t.Fatalf("err = %v, want unknown-class error", err)
	}
}

// TestClassLanesShareThePlanCache: both classes serve the same compiled
// artifact (one compile), and per-class batching works concurrently.
func TestClassLanesShareThePlanCache(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 2, MaxBatch: 4})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := "interactive"
			if i%2 == 1 {
				class = "batch"
			}
			if _, err := eng.Infer(context.Background(), Request{
				Network: "tiny", Dataset: "synthetic", Class: class, Input: tinyInput(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s := eng.Stats()
	if s.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles = %d, want 1 (classes share the artifact)", s.PlanCompiles)
	}
	if s.Errors != 0 || s.Requests != 16 {
		t.Fatalf("stats %+v", s)
	}
	if len(s.Queues) != 2 {
		t.Fatalf("queue stats %+v, want one per class", s.Queues)
	}
}

// TestShedsAndDeadlinesAreNotErrors: intentional scheduler outcomes — load
// sheds, deadline expiry, cancellation — must not pollute Stats.Errors,
// which pages operators on hard failures only.
func TestShedsAndDeadlinesAreNotErrors(t *testing.T) {
	const depth = 2
	eng := tinyEngine(t, Config{Workers: 1, MaxBatch: 1, QueueDepth: depth})
	release := stallLane(t, eng, ClassBatch)

	results := make(chan error, depth)
	for i := 0; i < depth; i++ {
		go func(i int) {
			_, err := eng.Infer(context.Background(), Request{
				Network: "tiny", Dataset: "synthetic", Class: "batch", Input: tinyInput(i)})
			results <- err
		}(i)
	}
	waitForQueueDepth(t, eng, "batch", depth)
	// One shed (full queue), one cancellation, then a hard failure.
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", Class: "batch"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, Request{Network: "tiny", Dataset: "synthetic"}); err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := eng.Infer(context.Background(), Request{Network: "nope", Dataset: "cifar10"}); err == nil {
		t.Fatal("want unknown-network error")
	}
	s := eng.Stats()
	if s.Errors != 1 {
		t.Fatalf("Errors = %d, want 1 (only the unknown network; shed=%d deadline_sheds=%d are not errors)",
			s.Errors, s.Shed, s.DeadlineSheds)
	}
	release()
	for i := 0; i < depth; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeoutMsValidation: client-supplied garbage deadlines are rejected as
// errors at admission, not converted into already-expired contexts that
// masquerade as deadline sheds.
func TestTimeoutMsValidation(t *testing.T) {
	eng := tinyEngine(t, Config{Workers: 1})
	for _, ms := range []float64{-1, 1e308, math.Inf(1), math.NaN(), maxTimeoutMs + 1} {
		_, err := eng.Infer(context.Background(),
			Request{Network: "tiny", Dataset: "synthetic", TimeoutMs: ms})
		if err == nil || !strings.Contains(err.Error(), "timeout_ms") {
			t.Fatalf("TimeoutMs=%g: err = %v, want timeout_ms validation error", ms, err)
		}
	}
	if s := eng.Stats(); s.DeadlineSheds != 0 {
		t.Fatalf("validation rejections counted as deadline sheds: %d", s.DeadlineSheds)
	}
	// A sane value still works.
	if _, err := eng.Infer(context.Background(),
		Request{Network: "tiny", Dataset: "synthetic", TimeoutMs: 5000}); err != nil {
		t.Fatal(err)
	}
}
