package serve

// Offline half of the engine: lower a network into an executable graph plan
// (graph IR → BN folding + residual/ReLU fusion → pattern/connectivity kernel
// compilation → liveness-planned arena). The two compile entry points
// differ only in where the parameters come from: generator models synthesize
// deterministic ones at the engine's operating point; registry models take
// theirs, and their topology, from the .patdnn artifact.

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
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
	// resolved this cm but have not enqueued yet — run on a fresh executor
	// instead of resurrecting a batcher nobody would ever retire (which would
	// pin the whole plan stack until Close and silently defeat the memory
	// budget).
	retired atomic.Bool
}

// compileModel lowers a generator model: deterministic parameters at the
// engine's operating point (pattern + connectivity pruning for 3×3 convs,
// magnitude pruning for 1×1s, dense FC, synthetic BN statistics).
func (e *Engine) compileModel(m *model.Model) (*compiledModel, error) {
	tag, err := e.cfg.compileLevel(false)
	if err != nil {
		return nil, err
	}
	params, err := execgraph.Generate(m, e.cfg.Patterns, e.cfg.ConnRate, e.cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return lower(m, params, tag, "")
}

// compileFromFile lowers a deployed .patdnn artifact (the registry's unit of
// serving): the whole graph it describes — residual nets and trained
// classifiers included — serves end to end, and an artifact whose records
// disagree with its topology is rejected at load time rather than served
// wrong.
func (e *Engine) compileFromFile(name, version string, mf *modelfile.File) (*compiledModel, error) {
	// A quantized artifact serves quantized by default: under "auto" its
	// convs compile at packedq8, keeping the int8 stream (and the smaller
	// resident footprint) the artifact was built for. An explicit engine
	// level still wins — the dequantized weights serve at packed.
	tag, err := e.cfg.compileLevel(mf.QuantBits >= 2)
	if err != nil {
		return nil, err
	}
	// The registry names the artifact and version around any error from here.
	m, params, err := execgraph.FromFile(name, mf)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return lower(m, params, tag, version)
}

// lower runs the graph passes — BN folded into conv weights, residual adds
// and ReLUs fused into conv epilogues, the liveness pass laying out the
// activation arena — at the level tag.
func lower(m *model.Model, params *execgraph.Params, tag, version string) (*compiledModel, error) {
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: tag})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
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

// newOutput allocates the tensor one inference writes its output to; it is
// handed to the caller and never recycled.
func (cm *compiledModel) newOutput() *tensor.Tensor {
	return tensor.New(cm.plan.OutC, cm.plan.OutH, cm.plan.OutW)
}
