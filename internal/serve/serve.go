// Package serve is the concurrent inference engine: the compile-once /
// execute-many layer PatDNN's offline compilation story implies (paper §4,
// Figure 7 — the "compact model" plus generated code is produced once, then
// executed for every inference on the phone).
//
// The Engine compiles a network exactly once per (network, dataset) key —
// running the whole pattern-pruning + FKR + FKW + codegen path at the engine's
// operating point — and caches the resulting plan stack. Each inference
// request runs alone, one layer sweep over the shared worker pool with every
// conv layer split across output channels, so kernel plans, packed FKW
// weights, and the pool's threads stay hot across the whole request stream,
// amortizing compilation and scheduling the way GRIM and PCONV argue a
// reusable sparse-inference framework should.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/model"
	"patdnn/internal/registry"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// ErrClosed is returned by Infer after Close.
var ErrClosed = errors.New("serve: engine closed")

// LevelAuto is the Config.Level spelling for the engine default: the packed
// FKW-direct kernels, quantized (packedq8) for a quantized artifact.
const LevelAuto = "auto"

// maxTimeoutMs bounds Request.TimeoutMs (~1 day in ms): far beyond any sane
// inference deadline, far inside the range where the float→Duration
// conversion stays exact and positive.
const maxTimeoutMs = 86_400_000

// Config parameterizes an Engine. The zero value selects sensible defaults.
type Config struct {
	Workers  int     // worker-pool size (<=0 selects GOMAXPROCS)
	Patterns int     // pattern-set size (default 8)
	ConnRate float64 // connectivity pruning rate (default 3.6)
	// Level is the kernel family every model compiles at: "packed",
	// "packedq8", or empty / LevelAuto for packed with quantized artifacts
	// served at packedq8. Any other value fails the first compile.
	Level string
	Seed  int64 // deterministic weight-generation seed (default 42)
	// QueueDepth bounds each per-model, per-class request queue. A request
	// arriving at a full queue is shed immediately with ErrOverloaded rather
	// than queued behind work it can't wait out. Default 64.
	QueueDepth int
	// QueueBytes bounds the output bytes each lane may have committed to
	// queued requests (4 bytes × the plan's output elements per call). A
	// classifier's 10-float output never approaches it, but an image-to-image
	// model emits whole feature maps — e.g. 3×64×64 ≈ 48 KiB per request — so
	// a slot-count bound alone would let one lane commit to hundreds of
	// megabytes of response tensors. A request whose output would push the
	// lane past the budget is shed with ErrOverloaded, exactly like a full
	// queue. Default 64 MiB per lane.
	QueueBytes int64
}

func (c Config) withDefaults() Config {
	if c.Patterns <= 0 {
		c.Patterns = 8
	}
	if c.ConnRate <= 0 {
		c.ConnRate = 3.6
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.QueueBytes < 1 {
		c.QueueBytes = 64 << 20
	}
	return c
}

// compileLevel resolves Config.Level to the level tag a model compiles at;
// quantized says the model is an artifact that stores integer weights.
func (c Config) compileLevel(quantized bool) (string, error) {
	if s := strings.ToLower(strings.TrimSpace(c.Level)); s == "" || s == LevelAuto {
		if quantized {
			return codegen.LevelTag(codegen.PackedQ8), nil
		}
		return codegen.LevelTag(codegen.Packed), nil
	}
	// Accept the same spelling freedom ParseLevel gives the two served levels.
	if lv, err := codegen.ParseLevel(c.Level); err == nil && (lv == codegen.Packed || lv == codegen.PackedQ8) {
		return codegen.LevelTag(lv), nil
	}
	return "", fmt.Errorf("serve: unknown level %q (want auto, packed or packedq8)", c.Level)
}

// Request is one inference call.
type Request struct {
	// Network names a paper model ("VGG", "RNT", "MBNT" or the full names
	// model.ByName accepts) or a RegisterModel key.
	Network string `json:"network"`
	// Dataset is "imagenet" or "cifar10" (or the registered model's dataset).
	Dataset string `json:"dataset"`
	// Input is the flattened [InC,InH,InW] image; nil selects a
	// deterministic synthetic input.
	Input []float32 `json:"input,omitempty"`
	// Class is the scheduling class: "interactive" (default) for
	// latency-sensitive traffic, "batch" for background traffic that sweeps
	// on its own lane's goroutine alone and can never starve interactive work.
	Class string `json:"class,omitempty"`
	// TimeoutMs attaches a server-side deadline to this request (in
	// milliseconds): if the deadline passes while the request is queued, the
	// lane sheds it before the sweep instead of burning compute on an
	// answer nobody is waiting for. 0 means no server-side deadline beyond
	// whatever the caller's ctx carries.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// Response reports one completed inference.
type Response struct {
	Network string `json:"network"`
	Dataset string `json:"dataset,omitempty"`
	// Version is the registry version that served the request ("" for
	// generator models). Under a weighted route this reveals which canary
	// leg the request rode.
	Version string `json:"version,omitempty"`
	// Level is the optimization-level tag of the plan stack that served the
	// request ("packed", or "packedq8" for quantized artifacts) — what
	// kernels actually ran.
	Level  string    `json:"level,omitempty"`
	Shape  [3]int    `json:"shape"`  // output [C,H,W]
	Output []float32 `json:"output"` // flattened feature map
	ArgMax int       `json:"argmax"` // index of the max output element
	// BatchSize is always 1: every request runs in a sweep of its own. The
	// field stays for clients that still read it.
	BatchSize int     `json:"batch_size"`
	QueueMs   float64 `json:"queue_ms"` // enqueue → sweep start
	RunMs     float64 `json:"run_ms"`   // sweep wall-clock
}

// Stats is a snapshot of the engine counters.
type Stats struct {
	Requests uint64 `json:"requests"`
	// Errors counts hard failures only — unknown models, bad inputs, compile
	// errors, requests rejected by a closed engine. Intentional scheduler
	// outcomes (load sheds, deadline expiry, caller cancellation) are by
	// design, normal under overload, and counted in their own fields below;
	// folding them in here would page operators on healthy admission control.
	Errors       uint64 `json:"errors"`
	PlanCompiles uint64 `json:"plan_compiles"` // plan-cache misses (models compiled)
	PlanHits     uint64 `json:"plan_hits"`     // plan-cache hits
	Workers      int    `json:"workers"`
	// Shed counts requests rejected at admission because their class lane was
	// full (ErrOverloaded — the 429 fast-fail), split by class below.
	Shed        uint64            `json:"shed"`
	ShedByClass map[string]uint64 `json:"shed_by_class,omitempty"`
	// DeadlineSheds counts calls dropped at dequeue (or admission) because
	// their context was already done (deadline expired or caller cancelled):
	// they are answered with the context error and never reach compute.
	DeadlineSheds uint64 `json:"deadline_sheds"`
	// ExpiredExecuted is the deadline contract's tripwire: requests that
	// executed even though their deadline had passed before the sweep
	// started. It must stay zero; the loadgen E2E harness asserts it.
	ExpiredExecuted uint64 `json:"expired_executed"`
	// Queues snapshots every live lane's bounded queue: current depth (never
	// above capacity), the configured capacity, and the high-water mark.
	Queues []QueueStat `json:"queues,omitempty"`
	// Admitted is the cumulative per-model, per-class admission count, keyed
	// "network[/dataset]/class". Unlike Queues (whose rows are scoped to one
	// artifact's lanes and vanish when a registry hot-reload swap or eviction
	// retires the batcher), these totals fold in every retired lane's count:
	// they are monotonic across swaps, which is what makes a fleet-wide sum
	// of replica /stats snapshots monotonic too.
	Admitted map[string]uint64 `json:"admitted,omitempty"`
	// Registry snapshots the attached model registry's counters (scans,
	// hot reloads, evictions, resident bytes); nil when no registry is
	// attached.
	Registry *registry.Stats `json:"registry,omitempty"`
}

// ModelInfo describes one compiled (cached) model — a generator-path plan
// cache entry, or a registry-backed .patdnn version.
type ModelInfo struct {
	Network string `json:"network"`
	Dataset string `json:"dataset,omitempty"`
	// Version and the fields after it describe registry-backed models:
	// version tag, whether its compiled plan stack is currently resident,
	// its byte footprint, and when it last served a request.
	Version     string  `json:"version,omitempty"`
	Source      string  `json:"source"` // "generator" or "registry"
	Level       string  `json:"level"`  // optimization-level tag of this plan stack
	ConvLayers  int     `json:"conv_layers"`
	InputShape  [3]int  `json:"input_shape,omitzero"`
	OutputShape [3]int  `json:"output_shape,omitzero"`
	Compression float64 `json:"compression,omitzero"` // total weights / surviving weights
	// FusedOps counts what the graph compiler fused away in this plan: BNs
	// folded into conv weights, ReLUs riding conv/fc epilogues, residual
	// adds absorbed into bottleneck-tail convs.
	FusedOps execgraph.FusedOps `json:"fused_ops,omitzero"`
	// ArenaBytes is the liveness-planned per-inference activation arena.
	ArenaBytes  int64     `json:"arena_bytes,omitzero"`
	Loaded      bool      `json:"loaded"`
	MemoryBytes int64     `json:"memory_bytes,omitzero"`
	LastUsed    time.Time `json:"last_used,omitzero"`
}

type modelKey struct {
	short, dataset string
}

// laneKey identifies a model's scheduling lane independent of artifact
// version: the granularity at which cumulative admission counts survive
// registry hot-reload swaps.
type laneKey struct {
	network, dataset string
	class            Class
}

// admittedKey is the Stats.Admitted map spelling of a laneKey.
func (k laneKey) admittedKey() string {
	s := k.network
	if k.dataset != "" {
		s += "/" + k.dataset
	}
	return s + "/" + k.class.String()
}

type modelEntry struct {
	once    sync.Once
	ready   atomic.Bool                    // set inside once: cm/err safe to read when true
	gate    atomic.Bool                    // a Preload/RegisterModel compile: blocks /readyz until done
	compile func() (*compiledModel, error) // fixed at creation; run by the first get
	cm      *compiledModel
	err     error
}

// get runs the entry's compile exactly once and returns the cached result;
// concurrent callers block until the first compile finishes.
func (en *modelEntry) get() (*compiledModel, error) {
	en.once.Do(func() {
		en.cm, en.err = en.compile()
		en.ready.Store(true)
	})
	return en.cm, en.err
}

// snapshot returns the compiled result without blocking: ok is false while
// the first compile is still in flight (the ready flag's store inside the
// once body orders the cm/err writes before any reader that observes true).
func (en *modelEntry) snapshot() (cm *compiledModel, err error, ok bool) {
	if !en.ready.Load() {
		return nil, nil, false
	}
	return en.cm, en.err, true
}

// Engine is the concurrent inference engine. Create with New; it is safe for
// use by any number of goroutines.
type Engine struct {
	cfg  Config
	pool *runtime.Pool

	mu     sync.Mutex // guards models/batchers maps + reg + aliases
	models map[modelKey]*modelEntry
	// aliases memoizes (request network, dataset) → the canonical (Short,
	// Dataset) model.ByName resolved it to, so alias-named requests ("vgg16",
	// "VGG-16") hit the plan cache directly instead of re-running descriptor
	// construction on the hot path.
	aliases map[modelKey]modelKey
	// batchers is keyed by the compiled artifact itself: generator-path
	// entries hold one stable compiledModel per cache key, while registry
	// models swap artifacts on hot reload — the new version gets its own
	// batcher and the retired one drains and exits (see retireBatcher).
	batchers map[*compiledModel]*batcher
	// laneCarry accumulates the admission counts of lanes whose batcher has
	// been retired — hot-reload swaps, evictions, removals — keyed by
	// (network, dataset, class) so the per-model cumulative totals in
	// Stats.Admitted survive any number of version swaps.
	laneCarry map[laneKey]uint64
	// reg is the attached model registry (nil unless WithRegistry was
	// called): disk-backed versioned .patdnn artifacts the engine resolves
	// Request.Network against before falling back to the generator path.
	reg *registry.Registry

	// lifecycle serializes Close against in-flight enqueues: enqueuers hold
	// the read side across the channel send, Close takes the write side
	// before closing batcher channels, so a send never hits a closed channel
	// and every accepted request gets a response.
	lifecycle sync.RWMutex
	closed    bool
	wg        sync.WaitGroup

	requests        atomic.Uint64
	errs            atomic.Uint64
	planCompiles    atomic.Uint64
	planHits        atomic.Uint64
	sheds           atomic.Uint64
	shedByClass     [numClasses]atomic.Uint64
	deadlineSheds   atomic.Uint64
	expiredExecuted atomic.Uint64
}

// New creates an Engine and its worker pool. Models compile lazily on first
// use (or eagerly via Preload) and stay cached until Close.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:       cfg,
		pool:      runtime.NewPool(cfg.Workers),
		models:    make(map[modelKey]*modelEntry),
		aliases:   make(map[modelKey]modelKey),
		batchers:  make(map[*compiledModel]*batcher),
		laneCarry: make(map[laneKey]uint64),
	}
}

// Preload compiles a model into the plan cache without running inference, so
// the first request doesn't pay compilation latency. A preload in flight
// gates Readiness (lazy request-triggered compiles do not).
func (e *Engine) Preload(network, dataset string) error {
	_, err := e.compiled(network, dataset, true)
	return err
}

// newEntry creates a cache entry that compiles m on first use.
func (e *Engine) newEntry(m *model.Model) *modelEntry {
	return &modelEntry{compile: func() (*compiledModel, error) { return e.compileModel(m) }}
}

// RegisterModel compiles a custom network descriptor into the plan cache
// under its (Short, Dataset) key, so Infer can address networks beyond the
// paper models (and tests can use small fixtures). Registering a key that is
// already cached is an error.
func (e *Engine) RegisterModel(m *model.Model) error {
	key := modelKey{m.Short, m.Dataset}
	e.mu.Lock()
	if _, ok := e.models[key]; ok {
		e.mu.Unlock()
		return fmt.Errorf("serve: model %s/%s already registered", m.Short, m.Dataset)
	}
	entry := e.newEntry(m)
	entry.gate.Store(true) // an explicit registration gates readiness like a preload
	e.models[key] = entry
	e.planCompiles.Add(1)
	e.mu.Unlock()
	_, err := entry.get()
	if err != nil {
		// Evict the failed entry so a corrected descriptor can re-register
		// under the same key.
		e.mu.Lock()
		if e.models[key] == entry {
			delete(e.models, key)
		}
		e.mu.Unlock()
	}
	return err
}

// compiled resolves the network name and returns the cached compiled model,
// compiling it exactly once per (network, dataset) key. Registered custom
// models match by exact (network, dataset); the paper networks additionally
// match every alias model.ByName accepts. gate marks the compile as
// readiness-gating (Preload): a pending gated compile keeps /readyz at 503,
// while a lazy request-triggered compile on a serving engine does not.
func (e *Engine) compiled(network, dataset string, gate bool) (*compiledModel, error) {
	key := modelKey{network, dataset}
	e.mu.Lock()
	entry, ok := e.models[key]
	if !ok {
		// An alias-named request ("vgg16", "VGG-16") whose canonical key was
		// resolved before: rewrite the key instead of re-running model.ByName
		// descriptor construction per request on the hot path.
		if canon, hit := e.aliases[key]; hit {
			key = canon
			entry, ok = e.models[key]
		}
	}
	if ok {
		if gate {
			entry.gate.Store(true)
		}
		e.planHits.Add(1)
		e.mu.Unlock()
		return entry.get() // waits out a concurrent first compile
	}
	e.mu.Unlock()

	// The model builders panic on datasets they don't know; reject
	// client-supplied garbage with an error instead.
	if dataset != "imagenet" && dataset != "cifar10" {
		return nil, fmt.Errorf("serve: unknown dataset %q (want imagenet or cifar10, or a registered model's dataset)", dataset)
	}
	m, err := model.ByName(network, dataset)
	if err != nil {
		return nil, err
	}
	key = modelKey{m.Short, m.Dataset}
	e.mu.Lock()
	// Remember the alias so the next request under this spelling short-
	// circuits to the canonical key (and counts as a plan hit).
	if network != m.Short || dataset != m.Dataset {
		e.aliases[modelKey{network, dataset}] = key
	}
	entry, ok = e.models[key]
	if ok {
		if gate {
			entry.gate.Store(true)
		}
		e.planHits.Add(1)
	} else {
		entry = e.newEntry(m)
		entry.gate.Store(gate)
		e.models[key] = entry
		e.planCompiles.Add(1)
	}
	e.mu.Unlock()
	return entry.get()
}

// batcherFor returns (creating if needed) the per-artifact batcher and its
// two lane goroutines.
func (e *Engine) batcherFor(cm *compiledModel) *batcher {
	e.mu.Lock()
	defer e.mu.Unlock()
	if bt, ok := e.batchers[cm]; ok {
		return bt
	}
	e.wg.Add(int(numClasses))
	bt := newBatcher(e, cm)
	e.batchers[cm] = bt
	return bt
}

// Infer runs one inference. Requests for the same model and class queue on
// one lane, which runs them one at a time in arrival order; ctx cancellation
// abandons the wait, and a deadline that expires while the request is queued
// sheds it before it reaches compute. A full class queue sheds immediately
// with ErrOverloaded.
func (e *Engine) Infer(ctx context.Context, req Request) (*Response, error) {
	e.requests.Add(1)
	resp, err := e.infer(ctx, req)
	if err != nil && !errors.Is(err, ErrOverloaded) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		e.errs.Add(1)
	}
	return resp, err
}

func (e *Engine) infer(ctx context.Context, req Request) (*Response, error) {
	// Fast-fail before compiling anything: a straggler request after Close
	// must not burn seconds populating a plan cache that can never serve.
	e.lifecycle.RLock()
	closed := e.closed
	e.lifecycle.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	class, err := ParseClass(req.Class)
	if err != nil {
		return nil, err
	}
	// Reject malformed deadlines up front (negative, NaN, or beyond the
	// duration range): converting them would yield an already-expired or
	// wrapped context and misreport client garbage as a deadline shed. The
	// negated comparison catches NaN too.
	if !(req.TimeoutMs >= 0 && req.TimeoutMs <= maxTimeoutMs) {
		return nil, fmt.Errorf("serve: timeout_ms %g outside [0, %g]", req.TimeoutMs, float64(maxTimeoutMs))
	}
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs*float64(time.Millisecond)))
		defer cancel()
	}
	cm, err := e.resolveModel(req)
	if err != nil {
		return nil, err
	}
	in, err := cm.inputTensor(req.Input)
	if err != nil {
		return nil, err
	}
	return e.dispatch(ctx, cm, in, class)
}

// dispatch executes one prepared input against a compiled artifact: through
// the artifact's class lane normally, or directly on a fresh executor when
// the artifact was retired between resolution and enqueue (a straggler racing
// a hot swap or eviction — creating a batcher for it would leak, since its
// Release has already fired).
func (e *Engine) dispatch(ctx context.Context, cm *compiledModel, in *tensor.Tensor, class Class) (*Response, error) {
	// A request that is already dead never enters a queue.
	if err := ctx.Err(); err != nil {
		e.deadlineSheds.Add(1)
		return nil, err
	}
	c := &call{ctx: ctx, input: in, resp: make(chan result, 1), enqueued: time.Now()}

	// The closed check, retirement check, batcher creation, and lane send all
	// happen under the lifecycle read lock: neither Close nor retireBatcher
	// (both take the write side) can slip between them, so no lane goroutine
	// is ever spawned after Close started, no send hits a closed channel, and
	// a batcher created here cannot have missed its retirement.
	e.lifecycle.RLock()
	if e.closed {
		e.lifecycle.RUnlock()
		return nil, ErrClosed
	}
	if cm.retired.Load() {
		e.lifecycle.RUnlock()
		// The straggler's lane is already gone; fold its admission straight
		// into the carry so the model's cumulative count stays exact.
		e.mu.Lock()
		e.laneCarry[laneKey{cm.model.Short, cm.model.Dataset, class}]++
		e.mu.Unlock()
		start := time.Now()
		out := cm.newOutput()
		cm.plan.Execute(e.poolFor(class), []*tensor.Tensor{in}, []*tensor.Tensor{out})
		return cm.response(result{
			out:     out,
			queueMs: float64(start.Sub(c.enqueued).Nanoseconds()) / 1e6,
			runMs:   float64(time.Since(start).Nanoseconds()) / 1e6,
		}), nil
	}
	bt := e.batcherFor(cm)
	err := bt.lanes[class].enqueue(c)
	e.lifecycle.RUnlock()
	if err != nil {
		return nil, err
	}

	select {
	case r := <-c.resp:
		if r.err != nil {
			return nil, r.err
		}
		return cm.response(r), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serialPool is the width-1 pool batch-class sweeps run on: no workers, so
// ParallelFor runs inline on the sweeping lane's goroutine.
var serialPool = runtime.NewPool(1)

// poolFor returns the worker pool a class sweeps on: the engine's full width
// for interactive, the calling goroutine alone for batch.
func (e *Engine) poolFor(class Class) *runtime.Pool {
	if class == ClassBatch {
		return serialPool
	}
	return e.pool
}

// response assembles the Response for one completed inference.
func (cm *compiledModel) response(r result) *Response {
	out := r.out
	return &Response{
		Network:   cm.model.Short,
		Dataset:   cm.model.Dataset,
		Version:   cm.version,
		Level:     cm.level,
		Shape:     [3]int{out.Dim(0), out.Dim(1), out.Dim(2)},
		Output:    out.Data,
		ArgMax:    out.ArgMax(),
		BatchSize: 1,
		QueueMs:   r.queueMs,
		RunMs:     r.runMs,
	}
}

// Close drains every batcher, stops the worker pool, closes the attached
// registry (if any), and stops the engine. In-flight requests complete;
// later Infer calls return ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.lifecycle.Lock()
	if e.closed {
		e.lifecycle.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Lock()
	for _, bt := range e.batchers {
		bt.closeLanes()
	}
	reg := e.reg
	e.mu.Unlock()
	e.lifecycle.Unlock()
	e.wg.Wait()
	// Every lane has exited, so nothing forks on the pool any more.
	e.pool.Close()
	if reg != nil {
		// After e.closed is set the registry's Release callbacks are no-ops,
		// so closing it here cannot race the batcher shutdown above.
		reg.Close()
	}
	return nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests:        e.requests.Load(),
		Errors:          e.errs.Load(),
		PlanCompiles:    e.planCompiles.Load(),
		PlanHits:        e.planHits.Load(),
		Workers:         e.pool.Workers(),
		Shed:            e.sheds.Load(),
		DeadlineSheds:   e.deadlineSheds.Load(),
		ExpiredExecuted: e.expiredExecuted.Load(),
	}
	if s.Shed > 0 {
		s.ShedByClass = make(map[string]uint64, int(numClasses))
		for cl := Class(0); cl < numClasses; cl++ {
			if n := e.shedByClass[cl].Load(); n > 0 {
				s.ShedByClass[cl.String()] = n
			}
		}
	}
	e.mu.Lock()
	admitted := make(map[string]uint64, len(e.laneCarry)+len(e.batchers)*int(numClasses))
	for k, n := range e.laneCarry {
		if n > 0 {
			admitted[k.admittedKey()] += n
		}
	}
	for cm, bt := range e.batchers {
		for _, ln := range bt.lanes {
			s.Queues = append(s.Queues, QueueStat{
				Network: cm.model.Short, Dataset: cm.model.Dataset,
				Version: cm.version, Class: ln.class.String(),
				Depth: len(ln.ch), Capacity: cap(ln.ch), Peak: int(ln.peak.Load()),
				Admitted:    ln.admitted.Load(),
				QueuedBytes: ln.bytes.Load(), ByteCapacity: e.cfg.QueueBytes,
			})
			if n := ln.admitted.Load(); n > 0 {
				k := laneKey{cm.model.Short, cm.model.Dataset, ln.class}
				admitted[k.admittedKey()] += n
			}
		}
	}
	if len(admitted) > 0 {
		s.Admitted = admitted
	}
	sort.Slice(s.Queues, func(i, j int) bool {
		a, b := s.Queues[i], s.Queues[j]
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return a.Class < b.Class
	})
	reg := e.reg
	e.mu.Unlock()
	if reg != nil {
		rs := reg.Stats()
		s.Registry = &rs
	}
	return s
}

// Models lists the compiled models currently in the plan cache plus every
// registered disk version (with version, resident bytes, and last-used time),
// sorted by name for stable output.
func (e *Engine) Models() []ModelInfo {
	e.mu.Lock()
	entries := make([]*modelEntry, 0, len(e.models))
	for _, entry := range e.models {
		entries = append(entries, entry)
	}
	reg := e.reg
	e.mu.Unlock()
	var out []ModelInfo
	for _, entry := range entries {
		cm, err, ok := entry.snapshot()
		if !ok || err != nil || cm == nil { // still compiling, or failed
			continue
		}
		out = append(out, cm.info())
	}
	if reg != nil {
		for _, m := range reg.Models() {
			mi := ModelInfo{
				Network: m.Name, Version: m.Version, Source: "registry",
				ConvLayers: m.ConvLayers,
				Loaded:     m.Loaded, MemoryBytes: m.Bytes, LastUsed: m.LastUsed,
			}
			// Resident artifacts describe their compiled plan (fused-op
			// counts, arena size, level) through the registry's detail
			// channel; a cold version has compiled nothing to describe.
			if d, ok := m.Detail.(artifactDetail); ok {
				mi.FusedOps, mi.ArenaBytes, mi.Level = d.Fused, d.ArenaBytes, d.Level
			}
			out = append(out, mi)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Network != out[j].Network {
			return out[i].Network < out[j].Network
		}
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return registry.CompareVersions(out[i].Version, out[j].Version) < 0
	})
	return out
}
