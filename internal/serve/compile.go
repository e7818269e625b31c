package serve

// Offline half of the engine: lower a network into an executable graph plan
// (graph IR → BN folding + residual/ReLU fusion → pattern/connectivity kernel
// compilation → liveness-planned arena), and the batched sweep that executes
// a gathered request batch over the worker pool. Generator models synthesize
// deterministic parameters at the engine's operating point; registry models
// take theirs from the .patdnn artifact (v2 graph artifacts carry the full
// topology; v1 conv-trunk artifacts are reassembled by the same chain
// convention previous releases served).

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// compiledModel is a network lowered to an executable graph plan: the cached
// artifact the plan cache holds per (model, dataset) key — or, for
// registry-backed models, the artifact one .patdnn version compiles to.
type compiledModel struct {
	model   *model.Model
	plan    *execgraph.Plan
	level   string // the level tag this artifact was compiled at
	version string // registry version ("" for generator models)
	// retired flips once the registry drops this artifact (eviction,
	// hot-reload replacement, removal). Requests that raced the drop —
	// resolved this cm but have not enqueued yet — run unbatched instead of
	// resurrecting a batcher nobody would ever retire (which would pin the
	// whole plan stack until Close and silently defeat the memory budget).
	retired atomic.Bool
}

// compileModel lowers m at the engine's level through the graph executor:
// deterministic parameters are generated at the engine's operating point
// (pattern + connectivity pruning for 3×3 convs, magnitude pruning for 1×1s,
// dense FC, synthetic BN statistics), then the graph passes fold BN into conv
// weights, fuse residual adds and ReLUs into conv epilogues, and the liveness
// pass lays out the activation arena.
func (e *Engine) compileModel(m *model.Model) (*compiledModel, error) {
	cfg := e.cfg
	tag, err := cfg.compileLevel(false)
	if err != nil {
		return nil, err
	}
	params, err := execgraph.Generate(m, cfg.Patterns, cfg.ConnRate, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: tag})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &compiledModel{model: m, plan: plan, level: tag}, nil
}

// compileFromFile lowers a deployed .patdnn artifact (the registry's unit of
// serving) into an executable graph plan. V2 artifacts carry the full network
// topology plus conv/dense/BN records, so the whole graph — residual nets
// included — serves end to end. V1 artifacts carry only the pruned 3×3 conv
// trunk; it is reassembled by convention: every conv runs with its bias and a
// ReLU activation, and a uniform spatial shrink between consecutive convs is
// realized as the stride==kernel max-pool that produces exactly the next
// layer's input geometry. Non-chainable layer sequences are rejected at load
// time rather than served wrong.
func (e *Engine) compileFromFile(name, version string, mf *modelfile.File) (*compiledModel, error) {
	// A v3 quantized artifact serves quantized by default: under "auto" its
	// convs compile at packedq8, keeping the int8 stream (and the ~4× smaller
	// resident footprint) the artifact was built for. An explicit engine
	// level still wins — the dequantized weights serve at packed.
	tag, err := e.cfg.compileLevel(mf.QuantBits >= 2)
	if err != nil {
		return nil, err
	}
	m, params, err := execgraph.FromFile(name, mf)
	if err != nil {
		return nil, fmt.Errorf("serve: artifact %s@%s: %w", name, version, err)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: tag})
	if err != nil {
		return nil, fmt.Errorf("serve: artifact %s@%s: %w", name, version, err)
	}
	return &compiledModel{model: m, plan: plan, level: tag, version: version}, nil
}

// memoryBytes is the resident footprint the registry's memory budget
// accounts for: dense pruned weight tensors, packed FKW arrays, 1×1 keep
// lists, FC matrices, and biases.
func (cm *compiledModel) memoryBytes() int64 { return cm.plan.MemoryBytes() }

func (cm *compiledModel) info() ModelInfo {
	inf := ModelInfo{
		Network:     cm.model.Short,
		Dataset:     cm.model.Dataset,
		Version:     cm.version,
		Source:      "generator",
		Level:       cm.level,
		ConvLayers:  cm.plan.ConvLayers,
		InputShape:  [3]int{cm.plan.InC, cm.plan.InH, cm.plan.InW},
		OutputShape: [3]int{cm.plan.OutC, cm.plan.OutH, cm.plan.OutW},
		Compression: cm.plan.Compression(),
		FusedOps:    cm.plan.Fused,
		Loaded:      true,
	}
	inf.ArenaBytes, _ = cm.plan.ArenaBytes()
	return inf
}

// inputTensor validates and copies a request input (the engine owns the
// tensor it feeds the sweep — callers may reuse their slice immediately). A
// nil input synthesizes a deterministic pseudo-image, which keeps the curl
// quickstart to one line.
func (cm *compiledModel) inputTensor(data []float32) (*tensor.Tensor, error) {
	t := tensor.New(cm.plan.InC, cm.plan.InH, cm.plan.InW)
	if data == nil {
		t.Randn(rand.New(rand.NewSource(1)), 1)
		return t, nil
	}
	if len(data) != len(t.Data) {
		return nil, fmt.Errorf("serve: %s/%s input has %d values, want %d ([%d,%d,%d])",
			cm.model.Short, cm.model.Dataset, len(data), len(t.Data),
			cm.plan.InC, cm.plan.InH, cm.plan.InW)
	}
	copy(t.Data, data)
	return t, nil
}

// runBatch executes one batch over the graph plan: every node runs once for
// the whole batch, conv-like nodes parallelize over batch × output-channels in
// one ParallelFor, and all intermediates live in the executor's
// liveness-planned arenas — no steady-state allocation, no scratch-pool churn
// per layer. ex is the caller's own executor for this plan; nil borrows one
// from the plan's pool for the call. The returned output tensors are handed
// to callers and never recycled.
func (cm *compiledModel) runBatch(ex *execgraph.Executor, pool *runtime.Pool, xs []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(xs))
	for i := range outs {
		outs[i] = tensor.New(cm.plan.OutC, cm.plan.OutH, cm.plan.OutW)
	}
	if ex != nil {
		ex.Run(pool, xs, outs)
	} else {
		cm.plan.Execute(pool, xs, outs)
	}
	return outs
}
