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
// deployable .patdnn graph artifact — the whole network, not only its conv
// trunk: every Conv2D ships as its FKW-compressed FP16 pattern-conv record
// with its bias, ReLU/MaxPool2/Flatten become topology layers, and every
// Dense ships as an FC record. The file loads through the same path as
// Compile's artifacts: cmd/patdnn-run executes it and a registry directory
// serves it as a classifier ([classes,1,1] logits). A layer type outside that
// list, or a conv without a pruned record in res, is an error — never a
// partial file.
func SavePruned(net *nn.Network, res *PruneResult, w io.Writer) error {
	m, params, err := exportNetwork(net, res.Layers)
	if err != nil {
		return err
	}
	f, err := artifact(m, params, 0)
	if err != nil {
		return err
	}
	return modelfile.Write(w, f)
}

// exportNetwork describes a trained nn.Network as the (topology, parameters)
// pair the artifact builder lays out. The i-th Conv2D takes the i-th pruned
// record. The network's input shape is what the first record saw; a layer
// ahead of the first conv that changes the shape surfaces as that conv's
// record not matching what the network carries.
func exportNetwork(net *nn.Network, convs []*pruned.Conv) (*model.Model, *execgraph.Params, error) {
	if len(convs) == 0 {
		return nil, nil, fmt.Errorf("patdnn: no pruned conv records (the first one carries the network's input shape)")
	}
	c, h, w := convs[0].InChannels(), convs[0].InH, convs[0].InW // running activation shape
	m := &model.Model{Name: "custom-cnn", Short: "custom", InC: c, InH: h, InW: w}
	m.Layers = append(m.Layers, &model.Layer{Name: "input", Kind: model.Input, OutC: c, OutH: h, OutW: w})
	params := &execgraph.Params{
		Convs: make(map[string]*execgraph.ConvParams),
		Dense: make(map[string]*execgraph.DenseParams),
	}
	for i, layer := range net.Layers {
		l := &model.Layer{InC: c, OutC: c, InH: h, InW: w, OutH: h, OutW: w}
		switch v := layer.(type) {
		case *nn.Conv2D:
			if len(convs) == 0 || convs[0].Name != v.Name {
				return nil, nil, fmt.Errorf("patdnn: conv layer %s has no pruned record (records follow the network's conv order)", v.Name)
			}
			pc := convs[0]
			convs = convs[1:]
			if pc.Depthwise || pc.InC != c || pc.InH != h || pc.InW != w {
				return nil, nil, fmt.Errorf("patdnn: pruned record %s expects input [%d,%d,%d] but the network carries [%d,%d,%d]",
					pc.Name, pc.InC, pc.InH, pc.InW, c, h, w)
			}
			l.Name, l.Kind, l.Groups, l.HasBias = v.Name, model.Conv, 1, true
			l.KH, l.KW, l.Stride, l.Pad = pc.KH, pc.KW, pc.Stride, pc.Pad
			l.OutC, l.OutH, l.OutW = pc.OutC, pc.OutH, pc.OutW
			params.Convs[v.Name] = &execgraph.ConvParams{Conv: pc, Bias: append([]float32(nil), v.Bias.W.Data...)}
		case *nn.ReLULayer:
			l.Name, l.Kind = fmt.Sprintf("relu%d", i), model.ReLU
		case *nn.MaxPool2:
			l.Name, l.Kind = fmt.Sprintf("pool%d", i), model.MaxPool
			l.KH, l.KW, l.Stride, l.OutH, l.OutW = 2, 2, 2, h/2, w/2
		case *nn.FlattenLayer:
			l.Name, l.Kind = fmt.Sprintf("flatten%d", i), model.Flatten
			l.OutC, l.OutH, l.OutW = c*h*w, 1, 1
		case *nn.Dense:
			if c*h*w != v.In {
				return nil, nil, fmt.Errorf("patdnn: dense layer %s expects %d features but the network carries [%d,%d,%d]", v.Name, v.In, c, h, w)
			}
			l = &model.Layer{Name: v.Name, Kind: model.FC, InC: v.In, OutC: v.Out, HasBias: true,
				InH: 1, InW: 1, OutH: 1, OutW: 1}
			params.Dense[v.Name] = &execgraph.DenseParams{W: v.Weight.W, Bias: v.Bias.W.Data}
			m.Classes = v.Out
		default:
			return nil, nil, fmt.Errorf("patdnn: layer %d (%T) has no artifact form", i, layer)
		}
		m.Layers = append(m.Layers, l)
		c, h, w = l.OutC, l.OutH, l.OutW
	}
	if len(convs) != 0 {
		return nil, nil, fmt.Errorf("patdnn: pruned record %s matches no conv layer of the network", convs[0].Name)
	}
	return m, params, nil
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
// records, BatchNorm statistics) laid out as a graph artifact. Deterministic
// per (network, patterns, connRate). Networks with operators outside the
// executable IR (e.g. the 7×7 ImageNet ResNet stem) are rejected with
// execgraph.ValidateModel's descriptive error.
func (c *Compiled) file(bits int) (*modelfile.File, error) {
	params, err := execgraph.Generate(c.Model, c.Patterns, c.ConnRate, 42)
	if err != nil {
		return nil, err
	}
	return artifact(c.Model, params, bits)
}

// artifact is the one place a modelfile.File is laid out: the topology, one
// record per parametric layer in topology order, and the layerwise
// representation of exactly the standard 3×3 convs shipped. A parametric
// layer without parameters is an error.
func artifact(m *model.Model, params *execgraph.Params, bits int) (*modelfile.File, error) {
	file := &modelfile.File{
		LR:        &lr.Representation{Model: m.Name, Device: "CPU"},
		Net:       m,
		QuantBits: bits,
	}
	missing := func(l *model.Layer) error {
		return fmt.Errorf("patdnn: %s: no parameters for %s layer %s", m.Name, l.Kind, l.Name)
	}
	for _, l := range m.Layers {
		switch {
		case l.Kind == model.ConvTranspose || (l.IsConv() && l.KH == 3):
			// Transposed convs ride the 3×3 conv record format (the direct,
			// pre-flip weights; the topology's kind + out_pad distinguish them
			// at load time). Upsample layers are parameter-free and live in the
			// topology alone.
			cp := params.Convs[l.Name]
			if cp == nil {
				return nil, missing(l)
			}
			file.Layers = append(file.Layers, modelfile.Layer{Conv: cp.Conv, Bias: cp.Bias})
			if l.Kind != model.DWConv {
				file.LR.Layers = append(file.LR.Layers,
					lr.FromPruned(cp.Conv, reorder.Build(cp.Conv), lr.DefaultTuning()))
			}
		case l.IsConv() || l.Kind == model.FC:
			dp := params.Dense[l.Name]
			if dp == nil {
				return nil, missing(l)
			}
			d := modelfile.DenseLayer{Name: l.Name, Kind: modelfile.DenseFC,
				OutC: l.OutC, InC: l.InC, Weights: dp.W.Data, Bias: dp.Bias}
			if l.IsConv() {
				d.Kind, d.Stride = modelfile.DenseConv1x1, l.Stride
				d.InH, d.InW, d.OutH, d.OutW = l.InH, l.InW, l.OutH, l.OutW
			}
			file.Dense = append(file.Dense, d)
		case l.Kind == model.BatchNorm:
			bp := params.BNs[l.Name]
			if bp == nil {
				return nil, missing(l)
			}
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
