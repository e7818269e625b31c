// Package patdnn is the public API of this PatDNN reproduction: an end-to-end
// framework for real-time DNN inference on mobile devices via pattern-based
// weight pruning (kernel patterns + connectivity pruning, trained with an
// extended ADMM framework) and compiler code generation (filter kernel
// reorder, FKW compressed storage, load redundancy elimination, parameter
// auto-tuning), following Niu et al., ASPLOS 2020.
//
// The package exposes the three stages of the paper's pipeline:
//
//	Prune    — run ADMM pattern+connectivity pruning on a real trainable CNN
//	           (the training substrate in internal/nn) and obtain accuracy
//	           plus the pruned layer representations.
//	Compile  — describe one of the paper's networks (VGG-16, ResNet-50,
//	           MobileNet-V2, the SR generator) at a pruning operating point;
//	           the description writes the deployable .patdnn graph artifact
//	           (pattern-pruned, FKR-reordered, FKW-encoded) and prints that
//	           artifact's layerwise representation.
//	Engine   — serve inference: compile a model once, cache the plan stack,
//	           and execute concurrent requests as batched layer sweeps over
//	           the worker-pool runtime (the compile-once / execute-many
//	           deployment story of paper Figure 7, as a server). An Engine
//	           can additionally attach a Registry (Engine.WithRegistry): a
//	           disk-backed versioned store of .patdnn artifacts with
//	           hot-reload, weighted canary routing, and a memory-budgeted
//	           LRU over compiled plans — the model-lifecycle layer between
//	           Compile's output on disk and the hot plan cache.
//
// Everything deeper (tensor math, the compiler passes, the serving engine)
// lives under internal/; the modelled device-latency and accuracy figures are
// reachable only as paper reproductions through RunExperiment. See DESIGN.md
// for the map.
package patdnn

import (
	"fmt"
	"io"
	"math"

	"patdnn/internal/admm"
	"patdnn/internal/bench"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/dataset"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/nn"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/registry"
	"patdnn/internal/serve"
)

// PruneConfig configures an ADMM pruning run on the training substrate.
type PruneConfig struct {
	Patterns      int     // pattern-set size (paper default 8)
	ConnRate      float64 // connectivity pruning rate (paper default 3.6; <=1 disables)
	Iterations    int     // ADMM iterations
	EpochsPerIter int
	FinetuneEps   int
	Seed          int64
}

// DefaultPruneConfig returns the paper's operating point scaled to the small
// training substrate.
func DefaultPruneConfig() PruneConfig {
	return PruneConfig{Patterns: 8, ConnRate: 3.6, Iterations: 4,
		EpochsPerIter: 2, FinetuneEps: 3, Seed: 1}
}

// PruneResult reports an ADMM pruning run.
type PruneResult struct {
	AccuracyBefore float64
	AccuracyAfter  float64
	Compression    float64
	Layers         []*pruned.Conv
}

// Prune trains-with-constraints: it applies joint kernel-pattern and
// connectivity pruning to net using the extended ADMM framework, fine-tunes
// the surviving weights, and reports accuracy on test.
func Prune(net *nn.Network, train, test *dataset.Dataset, cfg PruneConfig) (*PruneResult, error) {
	acfg := admm.DefaultConfig(pattern.Canonical(cfg.Patterns))
	acfg.ConnRate = cfg.ConnRate
	if cfg.Iterations > 0 {
		acfg.Iterations = cfg.Iterations
	}
	if cfg.EpochsPerIter > 0 {
		acfg.EpochsPerIt = cfg.EpochsPerIter
	}
	if cfg.FinetuneEps > 0 {
		acfg.FinetuneEps = cfg.FinetuneEps
	}
	acfg.Seed = cfg.Seed
	acfg.SkipFirstConv = true
	rep, err := admm.Run(net, train, test, acfg)
	if err != nil {
		return nil, err
	}
	return &PruneResult{
		AccuracyBefore: rep.AccBefore,
		AccuracyAfter:  rep.AccAfterTune,
		Compression:    rep.CompressionRate,
		Layers:         rep.Pruned,
	}, nil
}

// SavePruned writes a trained-and-pruned network (the output of Prune) as a
// deployable .patdnn compact model: FKW-compressed FP16 weights plus biases
// and the layerwise representation. The file round-trips through
// internal/modelfile and runs with cmd/patdnn-run.
func SavePruned(net *nn.Network, res *PruneResult, w io.Writer) error {
	file := &modelfile.File{LR: &lr.Representation{Model: "custom-cnn", Device: "CPU"}}
	convs := net.ConvLayers()
	if len(convs) < len(res.Layers) {
		return fmt.Errorf("patdnn: network has %d conv layers, result has %d",
			len(convs), len(res.Layers))
	}
	for i, pc := range res.Layers {
		bias := append([]float32(nil), convs[i].Bias.W.Data...)
		file.Layers = append(file.Layers, modelfile.Layer{Conv: pc, Bias: bias})
		file.LR.Layers = append(file.LR.Layers,
			lr.FromPruned(pc, reorder.Build(pc), lr.DefaultTuning()))
	}
	return modelfile.Write(w, file)
}

// Compiled describes one of the paper's networks at a pruning operating
// point. It holds no weights: every output below is derived on demand from
// the same deterministic generator, so the LR that is printed is the LR that
// is shipped.
type Compiled struct {
	Model    *model.Model
	Patterns int
	ConnRate float64
}

// Compile resolves one of the paper's networks ("VGG", "RNT", "MBNT", "SR" —
// or full names) on "imagenet" or "cifar10" and checks the operating point:
// patterns is the pattern-set size (>= 1), connRate the connectivity pruning
// rate (a finite number > 0; <= 1 disables connectivity pruning). Nothing is
// generated until an output is asked for.
func Compile(network, ds string, patterns int, connRate float64) (*Compiled, error) {
	m, err := model.ByName(network, ds)
	if err != nil {
		return nil, err
	}
	if patterns < 1 {
		return nil, fmt.Errorf("patdnn: pattern-set size %d; need >= 1", patterns)
	}
	if math.IsNaN(connRate) || math.IsInf(connRate, 0) || connRate <= 0 {
		return nil, fmt.Errorf("patdnn: connectivity rate %v; need a finite number > 0 (<= 1 disables connectivity pruning)", connRate)
	}
	return &Compiled{Model: m, Patterns: patterns, ConnRate: connRate}, nil
}

// file is the one derivation every output shares: the network's generated
// parameters (pattern-pruned 3×3 convs, connectivity-pruned 1×1 and FC dense
// records, BatchNorm statistics) laid out as a graph artifact, with the
// layerwise representation of exactly those convs. Deterministic per
// (network, patterns, connRate). Networks with operators outside the
// executable IR (e.g. the 7×7 ImageNet ResNet stem) are rejected with
// execgraph.ValidateModel's descriptive error.
func (c *Compiled) file(bits int) (*modelfile.File, error) {
	params, err := execgraph.Generate(c.Model, c.Patterns, c.ConnRate, 42)
	if err != nil {
		return nil, err
	}
	file := &modelfile.File{
		LR:        &lr.Representation{Model: c.Model.Name, Device: "CPU"},
		Net:       c.Model,
		QuantBits: bits,
	}
	for _, l := range c.Model.Layers {
		switch l.Kind {
		case model.ConvTranspose:
			// Transposed convs ride the 3×3 conv record format (the direct,
			// pre-flip weights; the topology's kind + out_pad distinguish them
			// at load time). Upsample layers are parameter-free and live in the
			// topology alone.
			cp := params.Convs[l.Name]
			file.Layers = append(file.Layers, modelfile.Layer{Conv: cp.Conv, Bias: cp.Bias})
			file.LR.Layers = append(file.LR.Layers,
				lr.FromPruned(cp.Conv, reorder.Build(cp.Conv), lr.DefaultTuning()))
		case model.Conv, model.DWConv:
			if l.KH == 3 {
				cp := params.Convs[l.Name]
				file.Layers = append(file.Layers, modelfile.Layer{Conv: cp.Conv, Bias: cp.Bias})
				if l.Kind == model.Conv {
					file.LR.Layers = append(file.LR.Layers,
						lr.FromPruned(cp.Conv, reorder.Build(cp.Conv), lr.DefaultTuning()))
				}
				continue
			}
			dp := params.Dense[l.Name]
			file.Dense = append(file.Dense, modelfile.DenseLayer{
				Name: l.Name, Kind: modelfile.DenseConv1x1,
				OutC: l.OutC, InC: l.InC, Stride: l.Stride,
				InH: l.InH, InW: l.InW, OutH: l.OutH, OutW: l.OutW,
				Weights: dp.W.Data, Bias: dp.Bias,
			})
		case model.FC:
			dp := params.Dense[l.Name]
			file.Dense = append(file.Dense, modelfile.DenseLayer{
				Name: l.Name, Kind: modelfile.DenseFC,
				OutC: l.OutC, InC: l.InC,
				Weights: dp.W.Data, Bias: dp.Bias,
			})
		case model.BatchNorm:
			bp := params.BNs[l.Name]
			file.BNs = append(file.BNs, modelfile.BNLayer{
				Name: l.Name, Gamma: bp.Gamma, Beta: bp.Beta,
				Mean: bp.Mean, Var: bp.Var, Eps: bp.Eps,
			})
		}
	}
	return file, nil
}

// LRJSON renders the Layerwise Representation (Figure 8) of the artifact
// WriteModelGraph writes — byte-equal to the LR section inside it.
func (c *Compiled) LRJSON() ([]byte, error) {
	f, err := c.file(0)
	if err != nil {
		return nil, err
	}
	return f.LR.Marshal()
}

// WriteModelGraph writes the deployable .patdnn artifact of this network:
// the full topology (layer kinds, shapes, residual shortcut edges) plus
// FKW-compressed FP16 pattern convs, dense records, BatchNorm parameters,
// the LR and a CRC footer (format v2). It serves end to end — ResNet-50 and
// MobileNet-V2 included — through the graph executor (BN folded at compile
// time, residual adds fused into conv epilogues); cmd/patdnn-run executes it
// and the model registry serves it. Distinct operating points yield distinct
// bytes, hence distinct model versions.
func (c *Compiled) WriteModelGraph(w io.Writer) error {
	return c.WriteModelGraphQuant(w, 0)
}

// WriteModelGraphQuant is WriteModelGraph with quantized weight storage:
// bits >= 2 stores every pattern conv's FKW weight stream as symmetric
// per-filter integer levels plus float32 scales (a format-v3 artifact, ~4×
// smaller at 8 bits, served quantized — packedq8 — by default); bits == 0
// writes the FP16 v2 form.
func (c *Compiled) WriteModelGraphQuant(w io.Writer, bits int) error {
	f, err := c.file(bits)
	if err != nil {
		return err
	}
	return modelfile.Write(w, f)
}

// Engine is the concurrent inference engine: it compiles each requested
// model exactly once through the full pattern path, caches the compiled plan
// stack plus packed FKW weights, and executes concurrent Infer calls as
// batched layer sweeps over the shared worker pool. Create one with
// NewEngine; cmd/patdnn-serve wraps it in an HTTP server, and examples can
// embed it directly. It is safe for concurrent use.
type Engine = serve.Engine

// EngineConfig configures an Engine; the zero value selects sensible
// defaults (GOMAXPROCS workers, sweeps of up to 8 queued requests, the
// paper's 8-pattern / 3.6x operating point). Every model compiles once, at
// the packed FKW-direct backend (which streams the compressed weight arrays
// with zero per-weight index arithmetic and fuses the bias+ReLU epilogue):
// Level is EngineLevelAuto (the default), "packed" or "packedq8", and
// InferResponse.Level names the kernels that ran.
type EngineConfig = serve.Config

// EngineLevelAuto is the EngineConfig.Level value (and the default): packed,
// with quantized artifacts served at packedq8.
const EngineLevelAuto = serve.LevelAuto

// InferRequest is one inference call against an Engine.
type InferRequest = serve.Request

// InferResponse reports one completed inference: the output feature map plus
// how the request was served (batch size, queue and run time).
type InferResponse = serve.Response

// EngineStats is a snapshot of an Engine's counters (requests, batches,
// plan-cache hits/misses).
type EngineStats = serve.Stats

// ErrEngineClosed is returned by Engine.Infer after Engine.Close.
var ErrEngineClosed = serve.ErrClosed

// NewEngine creates a concurrent inference engine. Models compile lazily on
// first use (or eagerly via Engine.Preload) and stay cached until
// Engine.Close.
func NewEngine(cfg EngineConfig) *Engine { return serve.New(cfg) }

// Registry is the disk-backed versioned model registry: it watches a models
// directory of `<name>@<version>.patdnn` artifacts (hot-reloading on change
// and quarantining corrupt files), resolves "name@version" specs plus a
// mutable name → version alias, splits bare-name traffic across versions by
// weight (canary rollouts), and bounds resident compiled plans with a
// byte-accounted LRU budget. Attach one to an Engine with
// Engine.WithRegistry; inference requests then address registry models by
// name or name@version. See internal/registry for the full API.
type Registry = registry.Registry

// RegistryConfig configures Engine.WithRegistry: the models directory, the
// memory budget over compiled plan stacks (0 = unlimited), the hot-reload
// polling period, and the deterministic route-picker seed.
type RegistryConfig = registry.Config

// RegistryStats snapshots registry counters (scans, hot reloads, evictions,
// lazy recompiles, resident bytes); also embedded in EngineStats.Registry.
type RegistryStats = registry.Stats

// EngineReadiness is Engine.Readiness's report: per-model compile/load state
// and whether the engine should receive traffic yet (the /readyz contract).
type EngineReadiness = serve.Readiness

// Experiments lists the reproduction experiments (one per paper table and
// figure); each Run() regenerates the artifact. Latencies on the paper's
// phones and accuracies at ImageNet scale are modelled (internal/bench), not
// measured.
func Experiments() []bench.Experiment { return bench.All() }

// RunExperiment regenerates one artifact by ID ("table3", "figure13", ...).
func RunExperiment(id string) (string, error) {
	e, ok := bench.ByID(id)
	if !ok {
		return "", fmt.Errorf("patdnn: unknown experiment %q", id)
	}
	return e.Run().Render(), nil
}
