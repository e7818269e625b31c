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
//	Compile  — lower a network description (VGG-16, ResNet-50, MobileNet-V2)
//	           through the full compiler: FKR, FKW encoding, LRE, tuning —
//	           and estimate latency on the modeled mobile devices.
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
// Everything deeper (tensor math, the compiler passes, the device models,
// the serving engine, the benchmark harness) lives under internal/; see
// DESIGN.md for the map.
package patdnn

import (
	"fmt"
	"io"
	"strings"

	"patdnn/internal/accuracy"
	"patdnn/internal/admm"
	"patdnn/internal/baseline"
	"patdnn/internal/bench"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/dataset"
	"patdnn/internal/device"
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

// Compiled is a pattern-pruned, compiler-optimized model ready for latency
// estimation and inspection.
type Compiled struct {
	Model    *model.Model
	Patterns int
	ConnRate float64
	sparse   *baseline.PatDNNSparse
	lrRep    *lr.Representation
}

// Compile lowers one of the paper's networks ("VGG", "RNT", "MBNT" — or full
// names) on "imagenet" or "cifar10" through the whole PatDNN compiler at the
// given operating point.
func Compile(network, ds string, patterns int, connRate float64) (*Compiled, error) {
	m, err := model.ByName(network, ds)
	if err != nil {
		return nil, err
	}
	sp, err := baseline.CompilePatDNN(m, patterns, connRate, codegen.Tuned, 42)
	if err != nil {
		return nil, err
	}
	rep := &lr.Representation{Model: m.Name, Device: "CPU"}
	set := pattern.Canonical(patterns)
	for i, l := range m.ConvLayers() {
		if l.KH != 3 || l.KW != 3 || l.Kind != model.Conv {
			continue
		}
		c := pruned.Generate(l, set, connRate, int64(300+i), false)
		rep.Layers = append(rep.Layers, lr.FromPruned(c, reorder.Build(c), lr.DefaultTuning()))
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{Model: m, Patterns: patterns, ConnRate: connRate,
		sparse: sp, lrRep: rep}, nil
}

// LRJSON renders the model's Layerwise Representation as JSON (Figure 8).
func (c *Compiled) LRJSON() ([]byte, error) { return c.lrRep.Marshal() }

// WriteModel writes the deployable .patdnn compact model of this compiled
// network (every 3×3 conv pruned at the operating point, FKW-compressed FP16
// weights, LR, CRC footer): the artifact cmd/patdnn-run executes and the
// model registry serves. Deterministic per (network, patterns, connRate), so
// distinct operating points yield distinct model versions.
func (c *Compiled) WriteModel(w io.Writer) error {
	return c.WriteModelQuant(w, 0)
}

// WriteModelQuant is WriteModel with quantized weight storage: bits >= 2
// stores every conv's FKW weight stream as symmetric per-filter integer
// levels plus float32 scales (a format-v3 artifact, ~4× smaller at 8 bits);
// bits == 0 writes the FP16 v1 form.
func (c *Compiled) WriteModelQuant(w io.Writer, bits int) error {
	set := pattern.Canonical(c.Patterns)
	file := &modelfile.File{LR: &lr.Representation{Model: c.Model.Name, Device: "CPU"}}
	first := true
	for i, l := range c.Model.ConvLayers() {
		if l.KH != 3 || l.KW != 3 || l.Kind != model.Conv {
			continue
		}
		rate := c.ConnRate
		if first {
			// The paper prunes the first conv more conservatively.
			rate = baseline.FirstLayerConnRate(c.ConnRate)
			first = false
		}
		pc := pruned.Generate(l, set, rate, int64(400+i), true)
		file.Layers = append(file.Layers, modelfile.Layer{Conv: pc})
		file.LR.Layers = append(file.LR.Layers,
			lr.FromPruned(pc, reorder.Build(pc), lr.DefaultTuning()))
	}
	file.QuantBits = bits
	return modelfile.Write(w, file)
}

// WriteModelGraph writes the format-v2 deployable artifact of this compiled
// network: the full topology (layer kinds, shapes, residual shortcut edges)
// plus pattern-pruned 3×3 conv records, connectivity-pruned 1×1 and FC dense
// records, and BatchNorm parameters. Unlike WriteModel's conv-trunk form,
// a graph artifact serves end to end — ResNet-50 and MobileNet-V2 included —
// through the graph executor (BN folded at compile time, residual adds fused
// into conv epilogues). Deterministic per (network, patterns, connRate).
// Networks with operators outside the executable IR (e.g. the 7×7 ImageNet
// ResNet stem) are rejected with a descriptive error.
func (c *Compiled) WriteModelGraph(w io.Writer) error {
	return c.WriteModelGraphQuant(w, 0)
}

// WriteModelGraphQuant is WriteModelGraph with quantized weight storage:
// bits >= 2 stores every pattern conv's FKW weight stream as symmetric
// per-filter integer levels plus float32 scales (a format-v3 artifact, ~4×
// smaller at 8 bits, served quantized — packedq8 — by default); bits == 0
// writes the FP16 v2 form.
func (c *Compiled) WriteModelGraphQuant(w io.Writer, bits int) error {
	params, err := execgraph.Generate(c.Model, c.Patterns, c.ConnRate, 42)
	if err != nil {
		return err
	}
	file := &modelfile.File{
		LR:  &lr.Representation{Model: c.Model.Name, Device: "CPU"},
		Net: c.Model,
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
	file.QuantBits = bits
	return modelfile.Write(w, file)
}

// EstimateLatencyMs predicts inference latency on a modeled platform:
// device is "sd855", "sd845" or "kirin980"; target is "cpu" or "gpu".
func (c *Compiled) EstimateLatencyMs(dev, target string) (float64, error) {
	d, err := deviceByName(dev)
	if err != nil {
		return 0, err
	}
	tgt, err := targetByName(target)
	if err != nil {
		return 0, err
	}
	return c.sparse.TimeMs(d, tgt), nil
}

// BaselineLatencyMs predicts the latency of a competitor framework
// ("tflite", "tvm", "mnn", "dense") on the same model/platform.
func (c *Compiled) BaselineLatencyMs(framework, dev, target string) (float64, error) {
	d, err := deviceByName(dev)
	if err != nil {
		return 0, err
	}
	tgt, err := targetByName(target)
	if err != nil {
		return 0, err
	}
	var f baseline.Framework
	switch strings.ToLower(framework) {
	case "tflite":
		f = baseline.TFLite()
	case "tvm":
		f = baseline.TVM()
	case "mnn":
		f = baseline.MNN()
	case "dense":
		f = baseline.PatDNNDense(true)
	default:
		return 0, fmt.Errorf("patdnn: unknown framework %q", framework)
	}
	return f.TimeMs(c.Model, d, tgt)
}

// EstimatedAccuracy returns the calibrated accuracy at this operating point
// (ImageNet Top-5 / CIFAR Top-1; see DESIGN.md on the substitution).
func (c *Compiled) EstimatedAccuracy() float64 {
	return accuracy.Joint(c.Model.Short, c.Model.Dataset, c.Patterns, c.ConnRate)
}

func deviceByName(name string) (device.Device, error) {
	switch strings.ToLower(name) {
	case "sd855", "snapdragon855":
		return device.SD855(), nil
	case "sd845", "snapdragon845":
		return device.SD845(), nil
	case "kirin980":
		return device.Kirin980(), nil
	}
	return device.Device{}, fmt.Errorf("patdnn: unknown device %q (want sd855, sd845, kirin980)", name)
}

func targetByName(name string) (device.Target, error) {
	switch strings.ToLower(name) {
	case "cpu":
		return device.CPU, nil
	case "gpu":
		return device.GPU, nil
	}
	return device.CPU, fmt.Errorf("patdnn: unknown target %q (want cpu or gpu)", name)
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
// figure); each Run() regenerates the artifact.
func Experiments() []bench.Experiment { return bench.All() }

// RunExperiment regenerates one artifact by ID ("table3", "figure13", ...).
func RunExperiment(id string) (string, error) {
	e, ok := bench.ByID(id)
	if !ok {
		return "", fmt.Errorf("patdnn: unknown experiment %q", id)
	}
	return e.Run().Render(), nil
}
