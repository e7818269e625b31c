package serve

// The scheduling layer: every compiled artifact gets one batcher with two
// class lanes — interactive (the default, latency-sensitive) and batch
// (canary/bench/backfill traffic that must never starve interactive work).
// Each lane is a bounded queue: admission is a non-blocking send, so when a
// lane is full the engine sheds the request immediately with ErrOverloaded
// (the 429 fast-fail) instead of growing an unbounded backlog whose tail
// latency nobody can meet anyway.
//
// A lane runs one request per sweep: it takes the oldest queued call and runs
// it, then the next. It never waits on a clock and never gathers: an idle
// lane serves a lone request at once, and a busy lane's arrivals queue in
// arrival order. (Sweeping several queued requests together saved 12 % per
// image on VGG-16 — not enough to keep; DESIGN.md "One request per sweep".)
//
// Dispatch is deadline-aware. Requests carry their deadline through ctx
// (Request.TimeoutMs attaches one server-side); when a call is dequeued, a
// context that is already done — cancelled client, expired deadline — is
// answered with the context error and counted as a deadline shed rather than
// run. A tripwire counter (Stats.ExpiredExecuted) audits the invariant from
// the other side: any call that executes even though its deadline had passed
// before its sweep started is counted, and the E2E harness asserts the
// counter stays zero.
//
// Priority is by resource partitioning rather than preemption: the two lanes
// run concurrently (so a full batch queue never blocks interactive dequeue),
// but a batch-class sweep runs on its lane's goroutine alone — a width-1
// pool — while interactive sweeps fork across the engine's full pool.
// Saturating batch traffic therefore costs interactive requests at most one
// core, and the batch class still makes progress — capped, not starved, in
// either direction.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/tensor"
)

// ErrOverloaded is returned by Infer when the target model's queue for the
// request's class is full: the request was shed at admission without doing
// any work. HTTP front-ends should map it to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// Class is the scheduling class of a request.
type Class uint8

const (
	// ClassInteractive is the default class: user-facing, latency-sensitive
	// traffic. Interactive sweeps run at the worker pool's full width.
	ClassInteractive Class = iota
	// ClassBatch is background traffic — canary comparisons, benchmarking,
	// backfill — executed on its lane's goroutine alone so it can never
	// starve interactive work.
	ClassBatch
	numClasses
)

// String returns the wire spelling of the class.
func (c Class) String() string {
	if c == ClassBatch {
		return "batch"
	}
	return "interactive"
}

// ParseClass parses a Request.Class value; empty selects interactive.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return 0, fmt.Errorf("serve: unknown class %q (want interactive or batch)", s)
	}
}

// QueueStat is one lane's queue depth snapshot in Stats: the current depth,
// the configured bound, and the admission-time high-water mark. Depth can
// never exceed Capacity — the bound is the lane channel's capacity.
type QueueStat struct {
	Network  string `json:"network"`
	Dataset  string `json:"dataset,omitempty"`
	Version  string `json:"version,omitempty"`
	Class    string `json:"class"`
	Depth    int    `json:"depth"`
	Capacity int    `json:"capacity"`
	Peak     int    `json:"peak"`
	// QueuedBytes is the output-tensor commitment of the requests currently
	// between admission and sweep completion (4 bytes × plan output elements
	// each); ByteCapacity is the configured Config.QueueBytes bound.
	QueuedBytes  int64 `json:"queued_bytes"`
	ByteCapacity int64 `json:"byte_capacity"`
	// Admitted counts requests ever admitted to this lane. It is scoped to
	// the lane's artifact (a hot-reload swap starts the replacement's lane at
	// zero); Stats.Admitted carries the cumulative per-model total across
	// swaps — that is the counter fleet aggregation should sum.
	Admitted uint64 `json:"admitted"`
}

// call is one enqueued request inside a lane.
type call struct {
	ctx      ctxDone // request context: deadline + cancellation
	input    *tensor.Tensor
	resp     chan result // buffered(1): abandoned callers never block the lane
	enqueued time.Time
}

// ctxDone is the slice of context.Context the scheduler needs; a named
// interface keeps the call struct honest about what it consults (Err and
// Deadline for the dequeue filter, Deadline for the executed-expired tripwire).
type ctxDone interface {
	Err() error
	Deadline() (time.Time, bool)
}

// result is what a lane answers a call with.
type result struct {
	out     *tensor.Tensor
	err     error // non-nil when the call was shed at dequeue (ctx done)
	queueMs float64
	runMs   float64
}

// batcher owns one compiled model's request stream: two class lanes, each a
// bounded queue drained by its own sweep loop.
type batcher struct {
	lanes [numClasses]*lane
}

// lane is one class's bounded queue and sweep loop for one artifact.
type lane struct {
	eng      *Engine
	cm       *compiledModel
	class    Class
	ch       chan *call
	peak     atomic.Int64  // admission-time high-water mark of len(ch)
	admitted atomic.Uint64 // requests ever admitted to this lane
	// callBytes is the output commitment of one request against this
	// artifact (4 bytes per output element — the output run allocates);
	// bytes tracks the lane's outstanding total from admission until the lane
	// delivers or sheds the call, bounded by Config.QueueBytes.
	callBytes int64
	bytes     atomic.Int64
	// exec is the lane's own executor, built on its first sweep: a lane runs
	// one sweep at a time, so one is all it needs.
	exec *execgraph.Executor
}

// newLane builds one class lane for an artifact without starting its loop, so
// tests can fill the queue and step the loop body themselves.
func newLane(e *Engine, cm *compiledModel, class Class) *lane {
	return &lane{eng: e, cm: cm, class: class,
		callBytes: 4 * int64(cm.plan.OutC) * int64(cm.plan.OutH) * int64(cm.plan.OutW),
		ch:        make(chan *call, e.cfg.QueueDepth)}
}

// newBatcher creates the batcher and starts both lane goroutines. Callers
// hold e.mu and have already accounted e.wg.Add(numClasses).
func newBatcher(e *Engine, cm *compiledModel) *batcher {
	bt := &batcher{}
	for cl := Class(0); cl < numClasses; cl++ {
		ln := newLane(e, cm, cl)
		bt.lanes[cl] = ln
		go func() {
			defer e.wg.Done()
			for ln.step() {
			}
		}()
	}
	return bt
}

// closeLanes closes both lane channels; each loop drains its queue (shedding
// dead calls, completing live ones) and exits.
func (bt *batcher) closeLanes() {
	for _, ln := range bt.lanes {
		close(ln.ch)
	}
}

// enqueue admits c into the lane, or sheds it: non-blocking, so a full queue
// fails fast with ErrOverloaded instead of building an unbounded backlog.
// Callers hold the engine lifecycle read lock across the send.
func (ln *lane) enqueue(c *call) error {
	// Byte admission first: reserve this call's output commitment, and shed
	// if the reservation overshoots the lane budget. The add-then-check keeps
	// the bound exact under concurrent admission (two racing reservations
	// cannot both read a pre-reservation total and slip past the budget).
	if ln.bytes.Add(ln.callBytes) > ln.eng.cfg.QueueBytes {
		ln.shed()
		return ErrOverloaded
	}
	select {
	case ln.ch <- c:
		ln.admitted.Add(1)
		// High-water mark: approximate under concurrency (len can lag), but
		// the hard bound is the channel capacity itself.
		if d := int64(len(ln.ch)); d > ln.peak.Load() {
			ln.peak.Store(d)
		}
		return nil
	default:
		ln.shed()
		return ErrOverloaded
	}
}

// shed undoes a failed admission's byte reservation and counts the shed.
func (ln *lane) shed() {
	ln.bytes.Add(-ln.callBytes)
	ln.eng.sheds.Add(1)
	ln.eng.shedByClass[ln.class].Add(1)
}

// step is one turn of the lane loop: block for the oldest queued call and
// run it. It reports false once the lane is closed and drained.
func (ln *lane) step() bool {
	c, ok := <-ln.ch
	if !ok {
		return false
	}
	ln.run(c)
	return true
}

// run answers one call. The deadline filter runs first: a call whose context
// is already done is answered with the context error and counted as a
// deadline shed — its input never reaches compute. The deadline is
// additionally checked against the clock directly: a context's Err() only
// flips when its timer fires, and on a loaded machine the timer can lag the
// wall-clock deadline — the contract is "expired at sweep start", not
// "expired and the runtime noticed". start is taken before the filter, so
// the executed-expired tripwire below can never fire unless the filter
// itself is broken.
func (ln *lane) run(c *call) {
	// Every dequeued call releases its byte reservation here — completed,
	// deadline-shed, and drain-on-close alike all pass through run.
	defer ln.bytes.Add(-ln.callBytes)
	start := time.Now()
	err := c.ctx.Err()
	if dl, ok := c.ctx.Deadline(); err == nil && ok && !dl.After(start) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		ln.eng.deadlineSheds.Add(1)
		c.resp <- result{err: err}
		return
	}
	if ln.exec == nil {
		ln.exec = ln.cm.plan.NewExecutor()
	}
	out := ln.cm.newOutput()
	ln.exec.Run(ln.eng.poolFor(ln.class), []*tensor.Tensor{c.input}, []*tensor.Tensor{out})
	// Tripwire for the deadline contract: a delivered result whose deadline
	// predates the sweep start means an expired request burned compute — the
	// filter above exists to keep this at zero.
	if dl, ok := c.ctx.Deadline(); ok && dl.Before(start) {
		ln.eng.expiredExecuted.Add(1)
	}
	c.resp <- result{
		out:     out,
		queueMs: float64(start.Sub(c.enqueued).Nanoseconds()) / 1e6,
		runMs:   float64(time.Since(start).Nanoseconds()) / 1e6,
	}
}
