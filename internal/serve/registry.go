package serve

// Registry wiring: the engine can attach a disk-backed model registry
// (internal/registry) and resolve Request.Network through it — "name@version"
// for an exact version, bare "name" for the routed/latest one — next to the
// existing generator path. The engine is the registry's Loader: it lowers a
// validated .patdnn artifact into the same compiledModel representation the
// plan cache holds, so registry models ride the identical lanes and layer
// sweep. Hot reload and eviction are safe because artifacts are immutable:
// when the registry drops one, the engine retires its batcher — queued
// requests drain on the old compiled plans while new requests already
// resolve to (and queue on) the replacement.

import (
	"fmt"
	"sort"
	"strings"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/modelfile"
	"patdnn/internal/registry"
)

// diskArtifact is the engine's registry.Artifact: one .patdnn version
// compiled to an executable op stack.
type diskArtifact struct {
	eng *Engine
	cm  *compiledModel
}

// MemoryBytes reports the resident footprint charged against the registry's
// memory budget.
func (a *diskArtifact) MemoryBytes() int64 { return a.cm.memoryBytes() }

// artifactDetail is what a resident registry artifact publishes through the
// registry's ModelInfo.Detail channel: the compiled plan's fused-op counts
// and arena size, so /models can report them per version.
type artifactDetail struct {
	Fused      execgraph.FusedOps `json:"fused_ops"`
	ArenaBytes int64              `json:"arena_bytes"`
	// Level is the optimization level the artifact compiled at —
	// "packedq8" for quantized v3 artifacts serving their int8 stream.
	Level string `json:"level"`
}

// Describe implements registry.Describer.
func (a *diskArtifact) Describe() any {
	arena, _ := a.cm.plan.ArenaBytes()
	return artifactDetail{Fused: a.cm.plan.Fused, ArenaBytes: arena, Level: a.cm.level}
}

// Release retires the artifact's batcher when the registry drops the
// artifact (eviction, hot-reload replacement, removal).
func (a *diskArtifact) Release() { a.eng.retireBatcher(a.cm) }

// WithRegistry attaches a disk-backed model registry to the engine: cfg.Dir
// is scanned for versioned .patdnn artifacts, which become resolvable as
// Request.Network = "name" or "name@version". The returned registry exposes
// scanning, routing, and budget control; the engine closes it on Close.
func (e *Engine) WithRegistry(cfg registry.Config) (*registry.Registry, error) {
	e.lifecycle.RLock()
	closed := e.closed
	e.lifecycle.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.reg != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("serve: a registry is already attached")
	}
	e.mu.Unlock()
	loader := registry.LoaderFunc(func(name, version string, f *modelfile.File) (registry.Artifact, error) {
		cm, err := e.compileFromFile(name, version, f)
		if err != nil {
			return nil, err
		}
		return &diskArtifact{eng: e, cm: cm}, nil
	})
	reg, err := registry.Open(cfg, loader)
	if err != nil {
		return nil, err
	}
	// Store under the lifecycle read lock: Close holds the write side, so
	// either Close already ran (we must close the fresh registry ourselves —
	// nobody else ever would) or our store completes first and Close will
	// see and close it.
	e.lifecycle.RLock()
	if e.closed {
		e.lifecycle.RUnlock()
		reg.Close()
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.reg != nil { // raced with another WithRegistry
		e.mu.Unlock()
		e.lifecycle.RUnlock()
		reg.Close()
		return nil, fmt.Errorf("serve: a registry is already attached")
	}
	e.reg = reg
	e.mu.Unlock()
	e.lifecycle.RUnlock()
	return reg, nil
}

// Registry returns the attached registry, or nil.
func (e *Engine) Registry() *registry.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reg
}

// resolveModel maps a request to its compiled artifact. Registry-backed
// resolution applies when the network spec names an explicit version
// ("name@version"), or when the registry holds the bare name and the
// request leaves Dataset empty — a non-empty Dataset is the generator
// protocol (registry artifacts carry no dataset), so such requests fall
// through to the generator path instead of letting a same-named artifact
// silently shadow every dataset's model.
func (e *Engine) resolveModel(req Request) (*compiledModel, error) {
	reg := e.Registry()
	versioned := strings.Contains(req.Network, "@")
	if reg == nil || (!versioned && (req.Dataset != "" || !reg.Has(req.Network))) {
		if versioned {
			return nil, fmt.Errorf("serve: %q names a registry version but no models directory is attached", req.Network)
		}
		return e.compiled(req.Network, req.Dataset, false)
	}
	res, err := reg.Resolve(req.Network)
	if err != nil {
		return nil, err
	}
	return res.Artifact.(*diskArtifact).cm, nil
}

// retireBatcher marks cm retired and closes/removes its batcher after the
// registry dropped the artifact. Taking the lifecycle write lock excludes
// every in-flight enqueue (they hold the read side across the retirement
// check, lookup, and send), so once the flag is set and the batcher leaves
// the map no goroutine can still send on its channel — stragglers that
// resolved cm earlier observe the flag and run outside any lane instead.
// Closing the channel afterwards lets the batcher drain queued calls on the
// old plans and exit. After Close this is a no-op (Close already closed every
// channel).
func (e *Engine) retireBatcher(cm *compiledModel) {
	e.lifecycle.Lock()
	cm.retired.Store(true)
	if e.closed {
		e.lifecycle.Unlock()
		return
	}
	e.mu.Lock()
	bt := e.batchers[cm]
	delete(e.batchers, cm)
	if bt != nil {
		// Fold the retired lanes' cumulative counters into the per-model
		// carry: Stats.Admitted must not dip when a hot-reload swap or
		// eviction replaces the artifact (fleet aggregation sums these
		// snapshots and expects monotonic counters).
		for _, ln := range bt.lanes {
			k := laneKey{cm.model.Short, cm.model.Dataset, ln.class}
			c := e.laneCarry[k]
			c.admitted += ln.admitted.Load()
			if p := ln.peak.Load(); p > c.peak {
				c.peak = p
			}
			e.laneCarry[k] = c
		}
	}
	e.mu.Unlock()
	e.lifecycle.Unlock()
	if bt != nil {
		bt.closeLanes()
	}
}

// ModelState is one model's compile/load state in a readiness report.
type ModelState struct {
	Network string `json:"network"`
	Dataset string `json:"dataset,omitempty"`
	Version string `json:"version,omitempty"`
	Level   string `json:"level,omitempty"`
	// State is "ready" (compiled and resident), "compiling" (first compile
	// in flight — blocks readiness), "cold" (registry version awaiting its
	// lazy compile — does not block), or "failed" (compile/load error —
	// does not block; the error is permanent until the artifact changes).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Readiness reports whether the engine should receive traffic, with
// per-model detail: it is not ready while preload compiles or registry
// scans are still in flight (a load balancer routing to a cold server
// would eat compile latency on live requests).
type Readiness struct {
	Ready    bool                `json:"ready"`
	Models   []ModelState        `json:"models"`
	Registry *registry.Readiness `json:"registry,omitempty"`
}

// Readiness snapshots the engine's readiness: plan-cache entries still
// compiling or registry scans in flight make it unready; steady states do
// not (cold or failed models, and the routine lazy recompiles a memory
// budget causes).
func (e *Engine) Readiness() Readiness {
	e.lifecycle.RLock()
	closed := e.closed
	e.lifecycle.RUnlock()

	e.mu.Lock()
	keys := make([]modelKey, 0, len(e.models))
	entries := make([]*modelEntry, 0, len(e.models))
	for k, entry := range e.models {
		keys = append(keys, k)
		entries = append(entries, entry)
	}
	reg := e.reg
	e.mu.Unlock()

	rd := Readiness{Ready: !closed}
	for i, entry := range entries {
		st := ModelState{Network: keys[i].short, Dataset: keys[i].dataset}
		cm, err, ok := entry.snapshot()
		switch {
		case !ok:
			st.State = "compiling"
			// Only explicitly requested warm-up work (Preload,
			// RegisterModel) gates readiness. A lazy compile some client
			// request triggered on an otherwise-warm engine must not 503 a
			// healthy instance out of rotation.
			if entry.gate.Load() {
				rd.Ready = false
			}
		case err != nil:
			st.State, st.Error = "failed", err.Error()
		case cm != nil:
			st.State, st.Level = "ready", cm.level
		}
		rd.Models = append(rd.Models, st)
	}
	if reg != nil {
		rr := reg.Readiness()
		rd.Registry = &rr
		if !rr.Ready {
			rd.Ready = false
		}
		for _, m := range reg.Models() {
			st := ModelState{Network: m.Name, Version: m.Version}
			switch {
			case m.Loaded:
				st.State = "ready"
			case m.Error != "":
				st.State, st.Error = "failed", m.Error
			default:
				st.State = "cold"
			}
			rd.Models = append(rd.Models, st)
		}
	}
	sort.Slice(rd.Models, func(i, j int) bool {
		a, b := rd.Models[i], rd.Models[j]
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		return registry.CompareVersions(a.Version, b.Version) < 0
	})
	return rd
}
