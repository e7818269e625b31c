// Package serve is the concurrent inference engine: the compile-once /
// execute-many layer PatDNN's offline compilation story implies (paper §4,
// Figure 7 — the "compact model" plus generated code is produced once, then
// executed for every inference on the phone).
//
// The Engine compiles a network exactly once per (network, dataset,
// pattern-set, connectivity-rate, optimization-level) key — running the whole
// pattern-pruning + FKR + FKW + codegen path — and caches the resulting plan
// stack. Inference requests against a cached model that are queued together
// (up to Config.MaxBatch — whatever arrived while the previous sweep ran) are
// executed as one batched layer sweep over the shared worker pool: each conv layer runs a
// single ParallelFor across batch×output-channels, so kernel plans, packed
// FKW weights, and the pool's threads stay hot across the whole request
// stream, amortizing compilation and scheduling the way GRIM and PCONV argue
// a reusable sparse-inference framework should.
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
	"patdnn/internal/compiler/tuner/tunedb"
	"patdnn/internal/model"
	"patdnn/internal/registry"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// ErrClosed is returned by Infer after Close.
var ErrClosed = errors.New("serve: engine closed")

// LevelAuto is the Config.Level / Request.Level spelling for "let the tuner's
// estimator pick per layer" — the engine default.
const LevelAuto = "auto"

// maxTimeoutMs bounds Request.TimeoutMs (~1 day in ms): far beyond any sane
// inference deadline, far inside the range where the float→Duration
// conversion stays exact and positive.
const maxTimeoutMs = 86_400_000

// Config parameterizes an Engine. The zero value selects sensible defaults.
type Config struct {
	Workers  int     // worker-pool size (<=0 selects GOMAXPROCS)
	MaxBatch int     // max requests fused into one layer sweep (default 8)
	Patterns int     // pattern-set size (default 8)
	ConnRate float64 // connectivity pruning rate (default 3.6)
	// Level is the kernel optimization level ("noopt", "reorder", "lre",
	// "tuned", "packed", "packedq8"). Empty / LevelAuto lets the tuner's estimator pick
	// per layer between the tuned dense-layout kernels and the packed
	// FKW-direct backend.
	Level string
	Seed  int64 // deterministic weight-generation seed (default 42)
	// QueueDepth bounds each per-model, per-class request queue. A request
	// arriving at a full queue is shed immediately with ErrOverloaded rather
	// than queued behind work it can't wait out. Default max(64, 8*MaxBatch).
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
	// BatchWorkers caps the worker-pool width batch-class sweeps may use, so
	// canary/bench traffic cannot monopolize the compute interactive traffic
	// needs. Default max(1, Workers/4); values above Workers are clamped.
	BatchWorkers int
	// TuningDB is the path of the persistent auto-tuning sidecar (e.g.
	// <models-dir>/tuning.json). When set — or when BackgroundTune is on —
	// every plan compile consults the DB before running tuning heuristics and
	// records its decisions, so recompiles of known layers (lazy reloads
	// after LRU eviction, warm restarts) do zero search work. Empty with
	// BackgroundTune off disables the tuning subsystem entirely.
	TuningDB string
	// BackgroundTune starts the background tuning worker: off the hot path it
	// re-searches packed-layer configurations with measured (wall-clock)
	// evaluation, records winners in the tuning DB, and hot-swaps improved
	// plans through the same atomic-swap machinery registry hot reloads use.
	BackgroundTune bool
	// TuneInterval is the background worker's round period (default 15s).
	TuneInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.Patterns <= 0 {
		c.Patterns = 8
	}
	if c.ConnRate <= 0 {
		c.ConnRate = 3.6
	}
	if c.Level == "" {
		c.Level = LevelAuto
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8 * c.MaxBatch
		if c.QueueDepth < 64 {
			c.QueueDepth = 64
		}
	}
	if c.QueueBytes < 1 {
		c.QueueBytes = 64 << 20
	}
	if c.TuneInterval <= 0 {
		c.TuneInterval = 15 * time.Second
	}
	return c
}

// resolveLevelTag canonicalizes a level name into the tag plan-cache keys and
// stats counters use; "" means "engine default".
func (e *Engine) resolveLevelTag(s string) (string, error) {
	if s == "" {
		s = e.cfg.Level
	}
	// Accept the same spelling freedom ParseLevel gives the named levels.
	if strings.EqualFold(strings.TrimSpace(s), LevelAuto) {
		return LevelAuto, nil
	}
	lv, err := codegen.ParseLevel(s)
	if err != nil {
		return "", fmt.Errorf("serve: unknown level %q (want noopt, reorder, lre, tuned, packed, or auto)", s)
	}
	return codegen.LevelTag(lv), nil
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
	// Level optionally overrides the engine's optimization level for this
	// request ("noopt", "reorder", "lre", "tuned", "packed", "packedq8", "auto"). Each
	// level compiles and caches its own plan stack — the level is part of the
	// plan-cache key.
	Level string `json:"level,omitempty"`
	// Class is the scheduling class: "interactive" (default) for
	// latency-sensitive traffic, "batch" for background traffic that rides
	// the width-limited batch lane and can never starve interactive work.
	Class string `json:"class,omitempty"`
	// TimeoutMs attaches a server-side deadline to this request (in
	// milliseconds): if the deadline passes while the request is queued, the
	// batcher sheds it before the sweep instead of burning compute on an
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
	// request ("packedq8" for quantized artifacts) — the ground truth for
	// what kernels actually ran, whatever the request asked for.
	Level     string    `json:"level,omitempty"`
	Shape     [3]int    `json:"shape"`      // output [C,H,W]
	Output    []float32 `json:"output"`     // flattened feature map
	ArgMax    int       `json:"argmax"`     // index of the max output element
	BatchSize int       `json:"batch_size"` // size of the batch this request rode in
	QueueMs   float64   `json:"queue_ms"`   // enqueue → batch start
	RunMs     float64   `json:"run_ms"`     // batched sweep wall-clock
}

// Stats is a snapshot of the engine counters.
type Stats struct {
	Requests uint64 `json:"requests"`
	// Errors counts hard failures only — unknown models, bad inputs, compile
	// errors, requests rejected by a closed engine. Intentional scheduler
	// outcomes (load sheds, deadline expiry, caller cancellation) are by
	// design, normal under overload, and counted in their own fields below;
	// folding them in here would page operators on healthy admission control.
	Errors          uint64  `json:"errors"`
	Batches         uint64  `json:"batches"`
	BatchedRequests uint64  `json:"batched_requests"` // requests that shared a batch with >=1 other
	PlanCompiles    uint64  `json:"plan_compiles"`    // plan-cache misses (models compiled)
	PlanHits        uint64  `json:"plan_hits"`        // plan-cache hits
	Workers         int     `json:"workers"`
	BatchWorkers    int     `json:"batch_workers"` // pool width granted to batch-class sweeps
	AvgBatch        float64 `json:"avg_batch"`     // Requests-that-ran / Batches
	// Shed counts requests rejected at admission because their class lane was
	// full (ErrOverloaded — the 429 fast-fail), split by class below.
	Shed        uint64            `json:"shed"`
	ShedByClass map[string]uint64 `json:"shed_by_class,omitempty"`
	// DeadlineSheds counts queued calls dropped at sweep time because their
	// context was already done (deadline expired or caller cancelled): they
	// are answered with the context error and never reach compute.
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
	// LevelHits counts plan-cache hits per optimization-level tag ("auto",
	// "tuned", "packed", ...): the level is part of the cache key, so this
	// shows which kernel generations the request stream is actually riding.
	LevelHits map[string]uint64 `json:"level_hits,omitempty"`
	// Registry snapshots the attached model registry's counters (scans,
	// hot reloads, evictions, resident bytes); nil when no registry is
	// attached.
	Registry *registry.Stats `json:"registry,omitempty"`
	// Tuning snapshots the persistent auto-tuning subsystem (nil when
	// disabled): tuning-DB traffic plus the background worker's counters.
	// All counters are monotonic for the engine's lifetime.
	Tuning *TuningStats `json:"tuning,omitempty"`
}

// TuningStats reports the tuning DB's counters and the background tuning
// worker's activity.
type TuningStats struct {
	// DB is the tuning store snapshot: entry count, lookup hits/misses,
	// records written, entries quarantined by the checked reader, and any
	// whole-file load error.
	DB tunedb.Stats `json:"db"`
	// BackgroundSearches counts measured GA searches the background worker
	// completed; Swaps counts the plan hot-swaps those searches earned.
	BackgroundSearches uint64 `json:"background_searches"`
	Swaps              uint64 `json:"swaps"`
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
	// level is the canonical optimization-level tag ("auto", "tuned",
	// "packed", ...). Two cache entries differing only in level are distinct
	// compiled artifacts — their plans hold different kernels.
	level string
}

// laneKey identifies a model's scheduling lane independent of artifact
// version: the granularity at which cumulative admission counts survive
// registry hot-reload swaps.
type laneKey struct {
	network, dataset string
	class            Class
}

// laneCarry is the folded residue of retired lanes under one laneKey.
type laneCarry struct {
	admitted uint64
	peak     int64
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
	// batchPool is the width-limited view of pool that batch-class sweeps
	// run on (Config.BatchWorkers), so background traffic is capped rather
	// than competing at full width with interactive sweeps.
	batchPool *runtime.Pool

	mu     sync.Mutex // guards models/registered/batchers maps + levelHits + reg + aliases
	models map[modelKey]*modelEntry
	// registered keeps custom descriptors by (short, dataset) so a request
	// with an explicit level override can compile a registered model at that
	// level too.
	registered map[[2]string]*model.Model
	// aliases memoizes (request network, dataset) → the canonical (Short,
	// Dataset) model.ByName resolved it to, so alias-named requests ("vgg16",
	// "VGG-16") hit the plan cache directly instead of re-running descriptor
	// construction on the hot path.
	aliases map[[2]string][2]string
	// batchers is keyed by the compiled artifact itself: generator-path
	// entries hold one stable compiledModel per cache key, while registry
	// models swap artifacts on hot reload — the new version gets its own
	// batcher and the retired one drains and exits (see retireBatcher).
	batchers  map[*compiledModel]*batcher
	levelHits map[string]uint64 // plan-cache hits per level tag
	// laneCarry accumulates the admission counts (and queue peaks) of lanes
	// whose batcher has been retired — hot-reload swaps, evictions, removals —
	// keyed by (network, dataset, class) so the per-model cumulative totals in
	// Stats.Admitted survive any number of version swaps.
	laneCarry map[laneKey]laneCarry
	// reg is the attached model registry (nil unless WithRegistry was
	// called): disk-backed versioned .patdnn artifacts the engine resolves
	// Request.Network against before falling back to the generator path.
	reg *registry.Registry

	// tdb is the persistent tuning DB every plan compile consults (nil when
	// the tuning subsystem is disabled); tuneStop/tuneWG manage the
	// background tuning worker when Config.BackgroundTune is set.
	tdb        *tunedb.DB
	tuneStop   chan struct{}
	tuneWG     sync.WaitGroup
	bgSearches atomic.Uint64
	bgSwaps    atomic.Uint64

	// lifecycle serializes Close against in-flight enqueues: enqueuers hold
	// the read side across the channel send, Close takes the write side
	// before closing batcher channels, so a send never hits a closed channel
	// and every accepted request gets a response.
	lifecycle sync.RWMutex
	closed    bool
	wg        sync.WaitGroup

	requests        atomic.Uint64
	errs            atomic.Uint64
	batches         atomic.Uint64
	ranRequests     atomic.Uint64
	batchedRequests atomic.Uint64
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
	pool := runtime.NewPool(cfg.Workers)
	bw := cfg.BatchWorkers
	if bw < 1 {
		bw = pool.Workers() / 4
		if bw < 1 {
			bw = 1
		}
	}
	e := &Engine{
		cfg:        cfg,
		pool:       pool,
		batchPool:  pool.Limit(bw),
		models:     make(map[modelKey]*modelEntry),
		registered: make(map[[2]string]*model.Model),
		aliases:    make(map[[2]string][2]string),
		batchers:   make(map[*compiledModel]*batcher),
		levelHits:  make(map[string]uint64),
		laneCarry:  make(map[laneKey]laneCarry),
	}
	if cfg.TuningDB != "" || cfg.BackgroundTune {
		// An empty path with background tuning on gives an in-memory DB: the
		// worker's measured winners still steer recompiles, just not across
		// restarts.
		e.tdb = tunedb.Open(cfg.TuningDB)
	}
	if cfg.BackgroundTune {
		e.tuneStop = make(chan struct{})
		e.tuneWG.Add(1)
		go e.tuneLoop()
	}
	return e
}

// Preload compiles a model into the plan cache (at the engine's default
// level) without running inference, so the first request doesn't pay
// compilation latency. A preload in flight gates Readiness (lazy
// request-triggered compiles do not).
func (e *Engine) Preload(network, dataset string) error {
	_, _, err := e.compiled(network, dataset, "", true)
	return err
}

// newEntry creates a cache entry that compiles m at the level the tag names
// ("auto" defers the per-layer choice to the tuner's estimator). Callers hold
// e.mu.
func (e *Engine) newEntry(m *model.Model, tag string) *modelEntry {
	return &modelEntry{compile: func() (*compiledModel, error) { return e.compileModel(m, tag) }}
}

// RegisterModel compiles a custom network descriptor into the plan cache
// under its (Short, Dataset, default level) key, so Infer can address
// networks beyond the three paper models (and tests can use small fixtures).
// Registering a key that is already cached is an error. The descriptor is
// retained so requests with an explicit level override can compile the model
// at other levels on demand.
func (e *Engine) RegisterModel(m *model.Model) error {
	// Canonicalize the configured level so the eager compile lands on the
	// same key Infer's lookups resolve to (Config.Level accepts the same
	// spellings ParseLevel does, e.g. "Tuned" or "fkw").
	tag, err := e.resolveLevelTag("")
	if err != nil {
		return err
	}
	key := modelKey{m.Short, m.Dataset, tag}
	nameKey := [2]string{m.Short, m.Dataset}
	e.mu.Lock()
	if _, ok := e.models[key]; ok {
		e.mu.Unlock()
		return fmt.Errorf("serve: model %s/%s already registered", m.Short, m.Dataset)
	}
	entry := e.newEntry(m, key.level)
	entry.gate.Store(true) // an explicit registration gates readiness like a preload
	e.models[key] = entry
	e.registered[nameKey] = m
	e.planCompiles.Add(1)
	e.mu.Unlock()
	_, err = entry.get()
	if err != nil {
		// Evict the failed entry so a corrected descriptor can re-register
		// under the same key.
		e.mu.Lock()
		if e.models[key] == entry {
			delete(e.models, key)
			delete(e.registered, nameKey)
		}
		e.mu.Unlock()
	}
	return err
}

// compiled resolves the network name and level tag and returns the cached
// compiled model, compiling it exactly once per (network, dataset, level)
// key. Registered custom models match by exact (network, dataset); the paper
// networks additionally match every alias model.ByName accepts. gate marks
// the compile as readiness-gating (Preload): a pending gated compile keeps
// /readyz at 503, while a lazy request-triggered compile on a serving engine
// does not.
func (e *Engine) compiled(network, dataset, level string, gate bool) (modelKey, *compiledModel, error) {
	tag, err := e.resolveLevelTag(level)
	if err != nil {
		return modelKey{}, nil, err
	}
	key := modelKey{network, dataset, tag}
	e.mu.Lock()
	entry, ok := e.models[key]
	if !ok {
		// An alias-named request ("vgg16", "VGG-16") whose canonical key was
		// resolved before: rewrite the key instead of re-running model.ByName
		// descriptor construction per request on the hot path.
		if canon, hit := e.aliases[[2]string{network, dataset}]; hit {
			key = modelKey{canon[0], canon[1], tag}
			entry, ok = e.models[key]
		}
	}
	if !ok {
		// A registered custom model requested at a not-yet-compiled level:
		// compile its retained descriptor at that level.
		if m, reg := e.registered[[2]string{key.short, key.dataset}]; reg {
			entry = e.newEntry(m, tag)
			entry.gate.Store(gate)
			e.models[key] = entry
			e.planCompiles.Add(1)
			e.mu.Unlock()
			cm, cerr := entry.get()
			return key, cm, cerr
		}
	}
	if ok {
		if gate {
			entry.gate.Store(true)
		}
		e.planHits.Add(1)
		e.levelHits[tag]++
		e.mu.Unlock()
		cm, err := entry.get() // waits out a concurrent first compile
		return key, cm, err
	}
	e.mu.Unlock()

	// The model builders panic on datasets they don't know; reject
	// client-supplied garbage with an error instead.
	if dataset != "imagenet" && dataset != "cifar10" {
		return modelKey{}, nil, fmt.Errorf("serve: unknown dataset %q (want imagenet or cifar10, or a registered model's dataset)", dataset)
	}
	m, err := model.ByName(network, dataset)
	if err != nil {
		return modelKey{}, nil, err
	}
	key = modelKey{m.Short, m.Dataset, tag}
	e.mu.Lock()
	// Remember the alias so the next request under this spelling short-
	// circuits to the canonical key (and counts as a plan hit).
	if network != m.Short || dataset != m.Dataset {
		e.aliases[[2]string{network, dataset}] = [2]string{m.Short, m.Dataset}
	}
	entry, ok = e.models[key]
	if ok {
		if gate {
			entry.gate.Store(true)
		}
		e.planHits.Add(1)
		e.levelHits[tag]++
	} else {
		entry = e.newEntry(m, tag)
		entry.gate.Store(gate)
		e.models[key] = entry
		e.planCompiles.Add(1)
	}
	e.mu.Unlock()
	cm, cerr := entry.get()
	return key, cm, cerr
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

// Infer runs one inference. Requests for the same model and class that are
// queued when a sweep starts execute together as a single batched layer sweep;
// ctx cancellation abandons the wait, and a deadline that expires while the
// request is queued sheds it before it reaches compute. A full class queue
// sheds immediately with ErrOverloaded.
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
// the artifact's class lane normally, or as a direct unbatched sweep when the
// artifact was retired between resolution and enqueue (a straggler racing a
// hot swap or eviction — creating a batcher for it would leak, since its
// Release has already fired).
func (e *Engine) dispatch(ctx context.Context, cm *compiledModel, in *tensor.Tensor, class Class) (*Response, error) {
	// A request that is already dead never enters a queue.
	if err := ctx.Err(); err != nil {
		e.deadlineSheds.Add(1)
		return nil, err
	}
	c := &call{ctx: ctx, input: in, resp: make(chan batchResult, 1), enqueued: time.Now()}

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
		k := laneKey{cm.model.Short, cm.model.Dataset, class}
		lc := e.laneCarry[k]
		lc.admitted++
		e.laneCarry[k] = lc
		e.mu.Unlock()
		start := time.Now()
		pool := e.pool
		if class == ClassBatch {
			pool = e.batchPool
		}
		outs := cm.runBatch(nil, pool, []*tensor.Tensor{in})
		e.batches.Add(1)
		e.ranRequests.Add(1)
		return cm.response(outs[0], batchResult{
			size:    1,
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
		return cm.response(r.out, r), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// response assembles the Response for one completed inference.
func (cm *compiledModel) response(out *tensor.Tensor, r batchResult) *Response {
	return &Response{
		Network:   cm.model.Short,
		Dataset:   cm.model.Dataset,
		Version:   cm.version,
		Level:     cm.level,
		Shape:     [3]int{out.Dim(0), out.Dim(1), out.Dim(2)},
		Output:    out.Data,
		ArgMax:    out.ArgMax(),
		BatchSize: r.size,
		QueueMs:   r.queueMs,
		RunMs:     r.runMs,
	}
}

// Close stops the background tuner, drains every batcher, closes the attached
// registry (if any), persists the tuning DB, and stops the engine. In-flight
// requests complete; later Infer calls return ErrClosed. Close is idempotent.
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
	if e.tuneStop != nil {
		// The worker checks e.closed at its next step; closing the stop
		// channel also wakes it out of its ticker wait. A worker mid-swap is
		// safe: retireBatcher after Close is a no-op.
		close(e.tuneStop)
		e.tuneWG.Wait()
	}
	e.wg.Wait()
	if reg != nil {
		// After e.closed is set the registry's Release callbacks are no-ops,
		// so closing it here cannot race the batcher shutdown above.
		reg.Close()
	}
	if e.tdb != nil {
		// Best-effort persistence of decisions made since the last round;
		// the DB is an accelerator, so a failed save never fails Close.
		_ = e.tdb.Save()
	}
	return nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Requests:        e.requests.Load(),
		Errors:          e.errs.Load(),
		Batches:         e.batches.Load(),
		BatchedRequests: e.batchedRequests.Load(),
		PlanCompiles:    e.planCompiles.Load(),
		PlanHits:        e.planHits.Load(),
		Workers:         e.pool.Workers(),
		BatchWorkers:    e.batchPool.Workers(),
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
	if s.Batches > 0 {
		s.AvgBatch = float64(e.ranRequests.Load()) / float64(s.Batches)
	}
	e.mu.Lock()
	if len(e.levelHits) > 0 {
		s.LevelHits = make(map[string]uint64, len(e.levelHits))
		for tag, n := range e.levelHits {
			s.LevelHits[tag] = n
		}
	}
	admitted := make(map[string]uint64, len(e.laneCarry)+len(e.batchers)*int(numClasses))
	for k, c := range e.laneCarry {
		if c.admitted > 0 {
			admitted[k.admittedKey()] += c.admitted
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
	if e.tdb != nil {
		s.Tuning = &TuningStats{
			DB:                 e.tdb.Stats(),
			BackgroundSearches: e.bgSearches.Load(),
			Swaps:              e.bgSwaps.Load(),
		}
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
		tag, _ := e.resolveLevelTag("")
		for _, m := range reg.Models() {
			mi := ModelInfo{
				Network: m.Name, Version: m.Version, Source: "registry",
				Level: tag, ConvLayers: m.ConvLayers,
				Loaded: m.Loaded, MemoryBytes: m.Bytes, LastUsed: m.LastUsed,
			}
			// Resident artifacts describe their compiled plan (fused-op
			// counts, arena size, actual level) through the registry's detail
			// channel. The detail level wins over the engine default: a v3
			// quantized artifact compiles at packedq8 even under "auto".
			if d, ok := m.Detail.(artifactDetail); ok {
				mi.FusedOps, mi.ArenaBytes = d.Fused, d.ArenaBytes
				if d.Level != "" {
					mi.Level = d.Level
				}
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
		if out[i].Version != out[j].Version {
			return registry.CompareVersions(out[i].Version, out[j].Version) < 0
		}
		return out[i].Level < out[j].Level
	})
	return out
}
