package execgraph

import (
	"fmt"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/graphopt"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/tuner"
	"patdnn/internal/compiler/tuner/tunedb"
	"patdnn/internal/model"
	"patdnn/internal/pruned"
	"patdnn/internal/tensor"
)

// LevelAuto is the Config.Level spelling for the default: every pattern conv
// at codegen.Packed.
const LevelAuto = "auto"

// Config parameterizes Compile.
type Config struct {
	// Level is the kernel optimization level for pattern-pruned convs
	// ("noopt", "reorder", "lre", "tuned", "packed", "packedq8"); empty or
	// "auto" is "packed" (never packedq8 — quantization changes the numbers,
	// so it is always an explicit choice, the caller's or the artifact's).
	Level string
	// TuneDB, when non-nil, is consulted for every pattern conv's execution
	// configuration before the analytic heuristics run, and records whichever
	// decision the compile made on a miss — so recompiling a layer already in
	// the DB (a registry lazy recompile after eviction, a warm restart) does
	// zero search work. The Plan's Tuning counters prove it.
	TuneDB *tunedb.DB
	// TuneSearch runs a compile-time GA search (tuner.Search over the packed
	// space, analytic cost model) for packed-level layers the DB misses on,
	// instead of the single-shot PackedTuning heuristic. Requires TuneDB to
	// be worthwhile — without a DB the search result is forgotten.
	TuneSearch bool
}

// Kind enumerates the executable node types. BatchNorm is deliberately
// absent: it folds into conv weights at compile time, and a model whose BN
// cannot fold is rejected.
type Kind int

// Node kinds.
const (
	KindInput   Kind = iota
	KindConv         // pattern-pruned 3×3 (standard or depthwise), codegen.Plan
	KindConv1x1      // connectivity-pruned 1×1, codegen.Plan1x1
	KindFC
	KindMaxPool
	KindGAP
	KindAdd  // unfused residual add (fallback; paper nets fuse these away)
	KindReLU // unfused activation (fallback)
	KindFlatten
	KindSoftmax
	// KindConvT is a pattern-pruned 3×3 transposed conv, executed as its
	// stride-1 equivalent conv (flipped kernels) over a stride-dilated input
	// staged in the padding scratch; Plan holds the equivalent conv's plan.
	KindConvT
	// KindUpsample is parameter-free nearest-neighbor expansion by Scale.
	KindUpsample
)

var kindNames = map[Kind]string{
	KindInput: "input", KindConv: "conv", KindConv1x1: "conv1x1",
	KindFC: "fc", KindMaxPool: "maxpool", KindGAP: "avgpool",
	KindAdd: "add", KindReLU: "relu", KindFlatten: "flatten",
	KindSoftmax: "softmax", KindConvT: "convtranspose", KindUpsample: "upsample",
}

func (k Kind) String() string { return kindNames[k] }

// Node is one executable operator of a compiled graph plan.
type Node struct {
	Kind   Kind
	Name   string
	Op     string // fused display form from the graph passes ("conv+bn+relu", ...)
	Inputs []int  // producing node IDs; Inputs[0] is the data input
	// Shortcut is the node whose output initializes this conv's output planes
	// (fused residual add), or -1.
	Shortcut int
	// ReLU marks a fused ReLU epilogue (convs, 1×1s, FCs).
	ReLU bool
	// BNFolded marks a conv whose weights/bias absorbed a BatchNorm.
	BNFolded bool

	Plan    *codegen.Plan    // KindConv / KindConvT (equivalent-conv plan)
	Plan1x1 *codegen.Plan1x1 // KindConv1x1
	W       *tensor.Tensor   // KindFC weight matrix [Out, In]
	Bias    []float32        // conv/fc bias after folding (nil = zero)
	PoolK   int              // KindMaxPool kernel == stride
	// DilStride is the KindConvT dilation factor (the transposed conv's
	// original stride): the input scatters into the padding scratch at that
	// spacing before the stride-1 equivalent conv sweeps it.
	DilStride int
	Scale     int // KindUpsample nearest-neighbor factor

	OutC, OutH, OutW int

	// Static memory plan: arena buffer IDs for the node output and, for convs
	// that read a prepared source (padded, split or subsampled input), the
	// source scratch (-1 when unused). Flatten, and a ReLU that is the last
	// reader of its input's buffer, share the input's slot.
	slot    int
	srcSlot int
}

// sourceLen is the element count of the prepared source the node's conv
// reads, or 0 when it reads its input as is.
func (n *Node) sourceLen() int {
	switch n.Kind {
	case KindConv:
		return n.Plan.SourceLen(1)
	case KindConvT:
		return n.Plan.SourceLen(n.DilStride)
	case KindConv1x1:
		return n.Plan1x1.SourceLen()
	}
	return 0
}

// keptPrefix is the kept-weight prefix sum over the node's filter positions
// that its compute parts are cut on; nil (cut by count) for an FC.
func (n *Node) keptPrefix() []int32 {
	switch n.Kind {
	case KindConv, KindConvT:
		return n.Plan.KeptPrefix()
	case KindConv1x1:
		return n.Plan1x1.KeptPrefix()
	}
	return nil
}

// FusedOps counts what the graph passes fused away — the numbers /models
// reports so operators can verify a deployed plan really runs fused.
type FusedOps struct {
	ConvBN   int `json:"conv_bn"`   // BatchNorms folded into conv weights
	ConvReLU int `json:"conv_relu"` // ReLUs fused into conv/fc epilogues
	Residual int `json:"residual"`  // residual adds fused into conv epilogues
}

// TuneStats counts one compile's tuning-DB interactions: how many pattern
// convs took their configuration from the DB, how many missed, and how many
// GA candidate evaluations ran at compile time. A warm compile — every layer
// already in the DB — shows Misses == 0 and Evals == 0.
type TuneStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Evals  int `json:"evals"`
}

// Plan is an executable DAG lowered through the graph optimizer, plus its
// static memory plan. Safe for concurrent use: execution state lives in
// Executors (see NewExecutor / Execute).
type Plan struct {
	Model *model.Model
	Level string
	Nodes []*Node
	Fused FusedOps

	// Tuning reports the tuning-DB traffic of this plan's compile (all zero
	// when no DB was attached).
	Tuning TuneStats

	ConvLayers   int   // pattern + 1×1 conv nodes
	TotalWeights int64 // dense weight count across conv nodes
	KeptWeights  int64 // surviving weight count (compression)

	InC, InH, InW    int
	OutC, OutH, OutW int

	output int // sink node ID

	arenaLen   int   // floats per inference
	bufOffsets []int // arena offset per buffer ID
	naiveLen   int   // sum of all node outputs (what no reuse would cost)
}

// ArenaBytes returns the per-inference activation arena size in bytes, and
// the bytes a plan without liveness reuse would need.
func (p *Plan) ArenaBytes() (planned, naive int64) {
	return 4 * int64(p.arenaLen), 4 * int64(p.naiveLen)
}

// MemoryBytes is the resident parameter footprint the registry's memory
// budget accounts for: the packed FKW arrays for pattern convs (plus the
// dense pruned weights at the levels below Packed, whose kernels read them),
// kept weights + indices for 1×1s, dense FC matrices, and biases.
func (p *Plan) MemoryBytes() int64 {
	var b int64
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindConv, KindConvT:
			if qb, ok := n.Plan.QuantizedWeightBytes(); ok {
				// PackedQ8 plans drop both float32 streams: resident weights
				// are the int8 levels + per-filter scales, plus FKW indices.
				b += int64(n.Plan.FKW.OverheadBytes()) + qb
			} else {
				if w := n.Plan.Conv.Weights; w != nil {
					b += 4 * int64(w.Len())
				}
				b += int64(n.Plan.FKW.TotalBytes(4))
			}
		case KindConv1x1:
			b += n.Plan1x1.MemoryBytes()
		case KindFC:
			b += 4 * int64(n.W.Len())
		default:
			continue
		}
		b += 4 * int64(len(n.Bias))
	}
	return b
}

// Compression returns dense/kept weight ratio across all conv nodes.
func (p *Plan) Compression() float64 {
	if p.KeptWeights == 0 {
		return 0
	}
	return float64(p.TotalWeights) / float64(p.KeptWeights)
}

// layerLevel resolves the optimization level one pattern conv compiles at: an
// explicit tag applies uniformly, and "auto" is the packed FKW-direct backend
// (never packedq8 — quantization changes the numbers).
func layerLevel(tag string) (codegen.Level, error) {
	if tag == LevelAuto {
		return codegen.Packed, nil
	}
	return codegen.ParseLevel(tag)
}

// layerTuning picks the heuristic tuning a layer compiles with: packed plans
// get the tuner-sized spatial tile; everything else keeps the default
// configuration. The tile budget uses the *maximum* per-filter weight count,
// not the layer mean: the packed kernels stream one filter at a time, so
// under skewed filter sparsity the heaviest filter is what must share L1 with
// the activation tile.
func layerTuning(level codegen.Level, pc *pruned.Conv) lr.Tuning {
	if level != codegen.Packed && level != codegen.PackedQ8 {
		return lr.DefaultTuning()
	}
	return tuner.PackedTuning(pc.OutH, pc.OutW, pc.InW+2*pc.Pad, pc.MaxFilterNNZ(), pc.Stride,
		packedBytesPerWeight(level))
}

// packedBytesPerWeight sizes the weight stream the packed tuning heuristics
// budget for: 4 bytes for the FP32 packed level, 1 for PackedQ8's int8 stream.
func packedBytesPerWeight(level codegen.Level) int {
	if level == codegen.PackedQ8 {
		return 1
	}
	return 4
}

// resolveTuning picks the tuning a pattern conv compiles with, consulting the
// tuning DB first: a hit returns the stored decision with zero search work; a
// miss falls back to the heuristic — or, with TuneSearch, a GA search over
// the packed space under the analytic cost model — and records the choice so
// every later compile of this key hits.
func (p *Plan) resolveTuning(cfg Config, level codegen.Level, pc *pruned.Conv) lr.Tuning {
	var key tunedb.Key
	if cfg.TuneDB != nil {
		key = tunedb.ConvKey(pc, codegen.LevelTag(level))
		if e, ok := cfg.TuneDB.Lookup(key); ok {
			p.Tuning.Hits++
			return e.Config
		}
		p.Tuning.Misses++
	}
	t := layerTuning(level, pc)
	source, cost := tunedb.SourceHeuristic, 0.0
	if cfg.TuneSearch && (level == codegen.Packed || level == codegen.PackedQ8) {
		wpf := pc.MaxFilterNNZ()
		bpw := packedBytesPerWeight(level)
		eval := func(c lr.Tuning) float64 {
			return tuner.PackedCost(pc.OutH, pc.OutW, pc.InW+2*pc.Pad, wpf, pc.Stride, bpw, c)
		}
		// A small deterministic budget, warm-started at the heuristic so the
		// search can never do worse than the fallback it replaces.
		opt := tuner.Options{Population: 8, Generations: 4, MutationP: 0.2, Elite: 2, Seed: 1,
			WarmStart: []lr.Tuning{t}}
		if best, hist, err := tuner.Search(tuner.PackedSpace(), eval, opt); err == nil {
			p.Tuning.Evals += len(hist)
			t, source, cost = best.Config, tunedb.SourceSearch, best.CostMs
		}
	}
	if cfg.TuneDB != nil {
		cfg.TuneDB.Record(key, tunedb.Entry{Config: t, CostMs: cost, Source: source})
	}
	return t
}

// Compile lowers m through the graph optimizer into an executable plan: BN
// folds into conv weights, residual adds and ReLUs fuse into conv epilogues,
// every conv compiles through the pattern (3×3) or connectivity (1×1) path at
// the configured level, and the liveness pass assigns every intermediate
// tensor an arena slot with buffers reused across non-overlapping live
// ranges.
func Compile(m *model.Model, params *Params, cfg Config) (*Plan, error) {
	if err := ValidateModel(m); err != nil {
		return nil, err
	}
	tag := cfg.Level
	if tag == "" {
		tag = LevelAuto
	}
	if tag != LevelAuto {
		lv, err := codegen.ParseLevel(tag)
		if err != nil {
			return nil, err
		}
		tag = codegen.LevelTag(lv)
	}

	cfg.Level = tag

	g := graphopt.FromModel(m)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.FuseConvBNReLU()
	g.FuseResidual()
	g.FuseFCReLU()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("execgraph: %s/%s: graph invalid after fusion: %w", m.Short, m.Dataset, err)
	}

	p := &Plan{
		Model: m, Level: tag,
		InC: m.InC, InH: m.InH, InW: m.InW,
	}
	dims := make([][3]int, len(g.Nodes))
	for _, gn := range g.Nodes {
		n, err := p.lower(m, gn, params, cfg, dims)
		if err != nil {
			return nil, err
		}
		dims[gn.ID] = [3]int{n.OutC, n.OutH, n.OutW}
		p.Nodes = append(p.Nodes, n)
	}
	if err := p.finish(m); err != nil {
		return nil, err
	}
	return p, nil
}

// lower translates one fused graph node into an executable node.
func (p *Plan) lower(m *model.Model, gn *graphopt.Node, params *Params, cfg Config, dims [][3]int) (*Node, error) {
	l := gn.Layer
	n := &Node{
		Kind: KindInput, Name: l.Name, Op: gn.Op,
		Inputs: append([]int(nil), gn.Inputs...), Shortcut: -1,
		ReLU: gn.FusedReLU, BNFolded: gn.BN != nil,
		slot: -1, srcSlot: -1,
	}
	var in [3]int
	if len(n.Inputs) > 0 {
		in = dims[n.Inputs[0]]
	}
	badInput := func(wantC, wantH, wantW int) error {
		return fmt.Errorf("execgraph: %s/%s: node %s expects input [%d,%d,%d] but the graph carries [%d,%d,%d]",
			m.Short, m.Dataset, l.Name, wantC, wantH, wantW, in[0], in[1], in[2])
	}
	bn, err := p.bnFor(m, gn, params)
	if err != nil {
		return nil, err
	}

	switch l.Kind {
	case model.Input:
		n.Kind = KindInput
		n.OutC, n.OutH, n.OutW = l.OutC, l.OutH, l.OutW

	case model.Conv, model.DWConv, model.ConvTranspose:
		if l.Kind == model.ConvTranspose || l.KH == 3 {
			cp, ok := params.Convs[l.Name]
			if !ok {
				return nil, fmt.Errorf("execgraph: %s/%s: no parameters for %s %s", m.Short, m.Dataset, l.Kind, l.Name)
			}
			pc, bias := cp.Conv, cp.Bias
			if in != [3]int{pc.InChannels(), pc.InH, pc.InW} {
				return nil, badInput(pc.InChannels(), pc.InH, pc.InW)
			}
			if bn != nil {
				if len(bn.Gamma) != pc.OutC {
					return nil, fmt.Errorf("execgraph: %s/%s: batchnorm %s has %d channels; %s %s produces %d",
						m.Short, m.Dataset, gn.BN.Name, len(bn.Gamma), l.Kind, l.Name, pc.OutC)
				}
				pc, bias = foldBNConv(pc, bias, bn)
				p.Fused.ConvBN++
			}
			n.Kind = KindConv
			if l.Kind == model.ConvTranspose {
				// The plan is the stride-1 equivalent conv's; the node keeps
				// the original stride to dilate the input by.
				n.Kind, n.DilStride = KindConvT, pc.Stride
				if pc, err = transposedEquivalent(pc, l.OutPad); err != nil {
					return nil, fmt.Errorf("execgraph: %s/%s: %w", m.Short, m.Dataset, err)
				}
			}
			level, err := layerLevel(cfg.Level)
			if err != nil {
				return nil, err
			}
			plan, err := codegen.Compile(pc, level, p.resolveTuning(cfg, level, pc))
			if err != nil {
				return nil, fmt.Errorf("execgraph: %s/%s: %w", m.Short, m.Dataset, err)
			}
			n.Plan, n.Bias = plan, bias
			n.OutC, n.OutH, n.OutW = pc.OutC, pc.OutH, pc.OutW
			p.TotalWeights += int64(pc.TotalWeights())
			p.KeptWeights += int64(pc.NNZ())
		} else {
			dp, ok := params.Dense[l.Name]
			if !ok {
				return nil, fmt.Errorf("execgraph: %s/%s: no parameters for 1x1 conv %s", m.Short, m.Dataset, l.Name)
			}
			w, bias := dp.W, dp.Bias
			if in != [3]int{l.InC, l.InH, l.InW} {
				return nil, badInput(l.InC, l.InH, l.InW)
			}
			if w.Rank() != 4 || w.Dim(0) != l.OutC || w.Dim(1) != l.InC {
				return nil, fmt.Errorf("execgraph: %s/%s: 1x1 conv %s is %d->%d channels but its weights are %v",
					m.Short, m.Dataset, l.Name, l.InC, l.OutC, w.Shape())
			}
			if bn != nil {
				if len(bn.Gamma) != l.OutC {
					return nil, fmt.Errorf("execgraph: %s/%s: batchnorm %s has %d channels; conv %s produces %d",
						m.Short, m.Dataset, gn.BN.Name, len(bn.Gamma), l.Name, l.OutC)
				}
				w, bias = foldBNDense(w, bias, bn)
				p.Fused.ConvBN++
			}
			plan, err := codegen.Compile1x1Pruned(l.Name, w, struct{ Stride, InH, InW, OutH, OutW int }{
				l.Stride, l.InH, l.InW, l.OutH, l.OutW,
			})
			if err != nil {
				return nil, err
			}
			n.Kind, n.Plan1x1, n.Bias = KindConv1x1, plan, bias
			n.OutC, n.OutH, n.OutW = l.OutC, l.OutH, l.OutW
			p.TotalWeights += int64(l.OutC) * int64(l.InC)
			p.KeptWeights += int64(plan.NNZ())
		}
		p.ConvLayers++
		if gn.Residual {
			n.Shortcut = n.Inputs[len(n.Inputs)-1]
			sc := dims[n.Shortcut]
			if sc != [3]int{n.OutC, n.OutH, n.OutW} {
				return nil, fmt.Errorf("execgraph: %s/%s: residual shortcut into %s is [%d,%d,%d], want [%d,%d,%d]",
					m.Short, m.Dataset, l.Name, sc[0], sc[1], sc[2], n.OutC, n.OutH, n.OutW)
			}
			p.Fused.Residual++
		}
		if n.ReLU {
			p.Fused.ConvReLU++
		}

	case model.Upsample:
		if in != [3]int{l.InC, l.InH, l.InW} {
			return nil, badInput(l.InC, l.InH, l.InW)
		}
		n.Kind, n.Scale = KindUpsample, l.Stride
		n.OutC, n.OutH, n.OutW = in[0], in[1]*l.Stride, in[2]*l.Stride

	case model.FC:
		dp, ok := params.Dense[l.Name]
		if !ok {
			return nil, fmt.Errorf("execgraph: %s/%s: no parameters for fc %s", m.Short, m.Dataset, l.Name)
		}
		if in[0]*max(in[1], 1)*max(in[2], 1) != l.InC {
			return nil, fmt.Errorf("execgraph: %s/%s: fc %s expects %d features but the graph carries [%d,%d,%d]",
				m.Short, m.Dataset, l.Name, l.InC, in[0], in[1], in[2])
		}
		n.Kind, n.W, n.Bias = KindFC, dp.W, dp.Bias
		n.OutC, n.OutH, n.OutW = l.OutC, 1, 1
		if n.ReLU {
			p.Fused.ConvReLU++
		}

	case model.MaxPool:
		if l.KW != l.KH || l.Stride != l.KH || l.KH < 1 {
			return nil, fmt.Errorf("execgraph: %s/%s: pool %s is %dx%d stride %d; only square stride==kernel pools are servable",
				m.Short, m.Dataset, l.Name, l.KH, l.KW, l.Stride)
		}
		if l.OutH != in[1]/l.KH || l.OutW != in[2]/l.KH {
			return nil, fmt.Errorf("execgraph: %s/%s: pool %s declares output %dx%d but %dx%d/%d pooling yields %dx%d",
				m.Short, m.Dataset, l.Name, l.OutH, l.OutW, in[1], in[2], l.KH, in[1]/l.KH, in[2]/l.KH)
		}
		n.Kind, n.PoolK = KindMaxPool, l.KH
		n.OutC, n.OutH, n.OutW = in[0], in[1]/l.KH, in[2]/l.KH

	case model.AvgPoolGlobal:
		n.Kind = KindGAP
		n.OutC, n.OutH, n.OutW = in[0], 1, 1

	case model.Add:
		if len(n.Inputs) != 2 {
			return nil, fmt.Errorf("execgraph: %s/%s: add %s has %d inputs, want 2",
				m.Short, m.Dataset, l.Name, len(n.Inputs))
		}
		if dims[n.Inputs[1]] != in {
			return nil, fmt.Errorf("execgraph: %s/%s: add %s input shapes differ", m.Short, m.Dataset, l.Name)
		}
		n.Kind = KindAdd
		n.OutC, n.OutH, n.OutW = in[0], in[1], in[2]

	case model.ReLU:
		n.Kind = KindReLU
		n.OutC, n.OutH, n.OutW = in[0], in[1], in[2]

	case model.Flatten:
		n.Kind = KindFlatten
		n.OutC, n.OutH, n.OutW = in[0]*max(in[1], 1)*max(in[2], 1), 1, 1

	case model.SoftmaxOp:
		n.Kind = KindSoftmax
		n.OutC, n.OutH, n.OutW = in[0], max(in[1], 1), max(in[2], 1)

	case model.BatchNorm:
		// A BN the fusion pass could not absorb (no producing conv, or a
		// multi-consumer intermediate) cannot run: the executable IR has no
		// BatchNorm node by design.
		return nil, fmt.Errorf("execgraph: %s/%s: batchnorm %s did not fold into a conv; the executed plan must hold zero BatchNorm nodes",
			m.Short, m.Dataset, l.Name)

	default:
		return nil, fmt.Errorf("execgraph: %s/%s: unsupported operator %s (%s)",
			m.Short, m.Dataset, l.Kind, l.Name)
	}
	return n, nil
}

// bnFor resolves the BNParams a fused graph node folds, if any.
func (p *Plan) bnFor(m *model.Model, gn *graphopt.Node, params *Params) (*BNParams, error) {
	if gn.BN == nil {
		return nil, nil
	}
	bn, ok := params.BNs[gn.BN.Name]
	if !ok {
		return nil, fmt.Errorf("execgraph: %s/%s: no parameters for batchnorm %s", m.Short, m.Dataset, gn.BN.Name)
	}
	return bn, nil
}

// finish validates the DAG has a single sink, records the plan output shape,
// and runs the liveness pass that assigns arena slots.
func (p *Plan) finish(m *model.Model) error {
	uses := make([]int, len(p.Nodes))
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			uses[in]++
		}
		if n.Shortcut >= 0 && n.Shortcut != n.Inputs[len(n.Inputs)-1] {
			uses[n.Shortcut]++
		}
	}
	sink := -1
	for i, u := range uses {
		if u == 0 {
			if sink >= 0 {
				return fmt.Errorf("execgraph: %s/%s: graph has multiple outputs (%s and %s)",
					m.Short, m.Dataset, p.Nodes[sink].Name, p.Nodes[i].Name)
			}
			sink = i
		}
	}
	if sink != len(p.Nodes)-1 {
		return fmt.Errorf("execgraph: %s/%s: output node is not last in topological order", m.Short, m.Dataset)
	}
	p.output = sink
	out := p.Nodes[sink]
	p.OutC, p.OutH, p.OutW = out.OutC, out.OutH, out.OutW
	p.planArena()
	return nil
}

// planArena runs the liveness analysis: every node output (and every conv's
// prepared source) is assigned a buffer, and a buffer is reused for a later
// tensor as soon as its previous occupant's live range [def, lastUse] has
// closed. Greedy first-fit on size, the same discipline TVM's static memory
// planner uses; offsets are the prefix sums of the final buffer sizes, so one
// arena allocation serves a whole inference with zero steady-state
// allocation. Offsets are rounded up to 16 floats, a cache line: one
// odd-sized buffer (VGG's and ResNet's first padded input, 3×34×34 floats)
// used to put every later one 48 bytes off a line, so half the kernels'
// 32-byte loads straddled two — ResNet-50's 1×1 convs ran 20–30 % slower.
//
// Two nodes take their input's buffer instead of a new one: Flatten, whose
// output is its input's bytes, and a standalone ReLU that is the last reader
// of its input's buffer, which then clamps in place. The buffer stays live
// until the last use of any value in it.
func (p *Plan) planArena() {
	nN := len(p.Nodes)
	lastUse := make([]int, nN)
	for i := range lastUse {
		lastUse[i] = i
	}
	for id, n := range p.Nodes {
		for _, in := range n.Inputs {
			if id > lastUse[in] {
				lastUse[in] = id
			}
		}
	}
	// The sink's buffer is copied out after execution; keep it live to the end.
	lastUse[p.output] = nN

	type buffer struct {
		size int
		free bool
	}
	var bufs []buffer
	alloc := func(sz int) int {
		for i := range bufs {
			if bufs[i].free && bufs[i].size >= sz {
				bufs[i].free = false
				return i
			}
		}
		bufs = append(bufs, buffer{size: sz})
		return len(bufs) - 1
	}
	// root[i] is the node whose buffer holds node i's output: i itself, or
	// for an alias its input's root, whose live range then covers the alias's.
	root := make([]int, nN)
	released := make([]bool, nN)
	srcReleased := make([]bool, nN)
	for i, n := range p.Nodes {
		// Close live ranges that ended strictly before this node; a prepared
		// source lives only during its own node.
		for j := 0; j < i; j++ {
			if root[j] == j && !released[j] && lastUse[j] < i {
				bufs[p.Nodes[j].slot].free = true
				released[j] = true
			}
			if ss := p.Nodes[j].srcSlot; ss >= 0 && !srcReleased[j] {
				bufs[ss].free = true
				srcReleased[j] = true
			}
		}
		if sz := n.sourceLen(); sz > 0 {
			n.srcSlot = alloc(sz)
			p.naiveLen += sz
		}
		sz := n.OutC * n.OutH * n.OutW
		p.naiveLen += sz
		root[i] = i
		if in := aliasOf(n, i, root, lastUse); in >= 0 {
			r := root[in]
			root[i], n.slot = r, p.Nodes[r].slot
			lastUse[r] = max(lastUse[r], lastUse[i])
			continue
		}
		n.slot = alloc(sz)
	}
	p.bufOffsets = make([]int, len(bufs))
	off := 0
	for i, b := range bufs {
		p.bufOffsets[i] = off
		off += (b.size + 15) &^ 15
	}
	p.arenaLen = off
}

// aliasOf returns the input whose buffer node i runs on, or -1: a Flatten's
// always, a ReLU's when no later node reads that buffer.
func aliasOf(n *Node, i int, root, lastUse []int) int {
	switch {
	case n.Kind == KindFlatten:
		return n.Inputs[0]
	case n.Kind == KindReLU && lastUse[root[n.Inputs[0]]] == i:
		return n.Inputs[0]
	}
	return -1
}
