// Package codegen generates executable kernel plans for pattern-pruned
// convolutions, mirroring PatDNN's code-generation flow (paper Figure 7).
// Four optimization levels correspond to the paper's ablation:
//
//	NoOpt      — branchy dispatch on every kernel's pattern (the "+No-opt"
//	             skeleton), original filter order.
//	Reorder    — Filter Kernel Reorder applied: branchless pattern runs,
//	             grouped filters (the "+Reorder" skeleton).
//	ReorderLRE — additionally, register-level load redundancy elimination:
//	             input rows are materialized once per output row and reused
//	             across kernel weights and adjacent outputs ("+LRE").
//	Tuned      — additionally, tile/unroll/permutation parameters from the
//	             auto-tuner are applied ("+Tune"), including filter-block
//	             input sharing.
//
// Every level executes real arithmetic and is checked bit-for-bit (within
// float tolerance) against the dense reference convolution; the levels also
// report the instruction statistics the device model converts to mobile
// execution times.
package codegen

import (
	"fmt"
	"strings"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/lre"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/pruned"
	"patdnn/internal/simd"
	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

// Level selects the optimization stage.
type Level int

// Optimization levels in ascending order. Packed is the FKW-direct backend:
// instead of gathering weights from the dense layout through per-kernel index
// arithmetic, its kernels walk the packed FKW Offset/Reorder/Index/Stride/
// Weights arrays in one sequential sweep per filter (paper §5.3, Fig. 10 —
// the layout exists precisely so the hot loop can stream weights).
const (
	NoOpt Level = iota
	Reorder
	ReorderLRE
	Tuned
	Packed
	// PackedQ8 is the quantized sibling of Packed: the same FKW-direct walk,
	// but the weight stream is int8 levels with one float32 scale per filter
	// (internal/quant's symmetric encoding), so the hot loop streams 4× fewer
	// weight bytes and the fused epilogue applies the scale once per filter.
	PackedQ8
)

var levelNames = map[Level]string{
	NoOpt: "No-Opt", Reorder: "+Reorder", ReorderLRE: "+Reorder+LRE",
	Tuned: "+Reorder+LRE+Tune", Packed: "+Packed-FKW", PackedQ8: "+Packed-INT8",
}

func (l Level) String() string { return levelNames[l] }

// AllLevels lists every optimization level in ascending order.
func AllLevels() []Level {
	return []Level{NoOpt, Reorder, ReorderLRE, Tuned, Packed, PackedQ8}
}

// ParseLevel maps a user-facing level name ("noopt", "reorder", "lre",
// "tuned", "packed", "packedq8"; case-insensitive) to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "noopt", "no-opt":
		return NoOpt, nil
	case "reorder":
		return Reorder, nil
	case "lre", "reorderlre":
		return ReorderLRE, nil
	case "tuned", "tune":
		return Tuned, nil
	case "packed", "fkw":
		return Packed, nil
	case "packedq8", "q8", "int8":
		return PackedQ8, nil
	}
	return NoOpt, fmt.Errorf("codegen: unknown level %q (want noopt, reorder, lre, tuned, packed, or packedq8)", s)
}

// LevelTag returns the canonical short name ParseLevel accepts for l — the
// form cache keys and stats counters use.
func LevelTag(l Level) string {
	switch l {
	case NoOpt:
		return "noopt"
	case Reorder:
		return "reorder"
	case ReorderLRE:
		return "lre"
	case Tuned:
		return "tuned"
	case Packed:
		return "packed"
	case PackedQ8:
		return "packedq8"
	}
	return "unknown"
}

// Plan is a compiled execution plan for one pruned conv layer.
type Plan struct {
	Level Level
	Conv  *pruned.Conv
	FKR   *reorder.Plan
	FKW   *sparse.FKW
	Tune  lr.Tuning

	// offsets[id-1] lists the (dr, dc) taps of pattern id.
	offsets [][][2]int
	// packed[pos] is the Packed and PackedQ8 levels' precompiled view over the
	// FKW arrays for reordered filter position pos; nil for other levels. When
	// set, Conv.Weights is nil — the packed stream is the plan's only weight
	// storage — and at PackedQ8 so is FKW.Weights: the stream is int8.
	packed []packedFilter
	// lay is how the packed drivers read their input (split and
	// plane-resident, or padded and tiled), fixed with packed.
	lay packedLayout
	// q8Bytes is the resident size of the quantized weight payload (levels +
	// scale table), recorded before the float32 streams are dropped.
	q8Bytes int64
	// kern is the SIMD microkernel set captured when the packed views were
	// built. Freezing it at compile time keeps the hot path free of global
	// reads: simd.ForceGeneric only affects plans compiled afterwards.
	kern simd.Kernels
}

// KernelArch reports which microkernel set a packed plan dispatches to
// ("avx2" or "generic"); empty for non-packed levels.
func (p *Plan) KernelArch() string { return p.kern.Name }

// KeptPrefix is the FKW Offset array: reordered filter position pos keeps
// KeptPrefix()[pos+1]−KeptPrefix()[pos] kernels. The graph executor cuts
// filter ranges on it so every worker gets an equal share of the MACs —
// FKR sorts heavy filters first, so equal counts would not.
func (p *Plan) KeptPrefix() []int32 { return p.FKW.Offset }

// Compile builds the plan for the requested level. Layers must carry weights.
func Compile(c *pruned.Conv, level Level, tune lr.Tuning) (*Plan, error) {
	if c.Weights == nil {
		return nil, fmt.Errorf("codegen: layer %s has no weights", c.Name)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, pat := range c.Set {
		if pat.Entries() != 4 {
			return nil, fmt.Errorf("codegen: pattern %v is not 4-entry; the unrolled microkernels require 4-entry patterns", pat)
		}
	}
	p := &Plan{Level: level, Conv: c, Tune: tune}
	if level == NoOpt {
		p.FKR = reorder.Identity(c)
	} else {
		p.FKR = reorder.Build(c)
	}
	fkw, err := sparse.Encode(c, p.FKR.FilterPerm)
	if err != nil {
		return nil, err
	}
	p.FKW = fkw
	p.offsets = make([][][2]int, len(c.Set))
	for i, pat := range c.Set {
		taps, terr := sparse.TapOffsets(pat, c.KH, c.KW)
		if terr != nil {
			return nil, terr
		}
		p.offsets[i] = taps
	}
	if level == Packed {
		if err := p.buildPacked(nil); err != nil {
			return nil, err
		}
	}
	if level == PackedQ8 {
		if err := p.buildPackedQ8(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// QuantizedWeightBytes returns the resident quantized weight payload size and
// true for PackedQ8 plans; (0, false) for levels storing float32 weights.
func (p *Plan) QuantizedWeightBytes() (int64, bool) {
	if p.Level != PackedQ8 {
		return 0, false
	}
	return p.q8Bytes, true
}

// Execute runs the compiled layer on a [InC, InH, InW] input and returns the
// [OutC, OutH, OutW] output. bias may be nil.
func (p *Plan) Execute(input *tensor.Tensor, bias []float32) *tensor.Tensor {
	c := p.Conv
	out := tensor.New(c.OutC, c.OutH, c.OutW)
	if bias != nil {
		for oc := 0; oc < c.OutC; oc++ {
			plane := out.Data[oc*c.OutH*c.OutW : (oc+1)*c.OutH*c.OutW]
			for i := range plane {
				plane[i] = bias[oc]
			}
		}
	}
	padded := tensor.New(input.Dim(0), input.Dim(1)+2*c.Pad, input.Dim(2)+2*c.Pad)
	PadInto(input, padded, c.Pad)
	switch p.Level {
	case NoOpt:
		p.execNoOpt(padded, out)
	case Reorder:
		p.execReorder(padded, out)
	case ReorderLRE:
		p.execLRE(padded, out)
	case Tuned:
		p.execTuned(padded, out)
	case Packed, PackedQ8:
		p.rangePacked(padded, out, 0, c.OutC, nil, nil, false, false)
	}
	return out
}

// ExecuteRange computes only output channels (in plan order) [from, to); the
// runtime uses it to parallelize a layer across worker threads along the
// filter-group boundaries FKR produces.
func (p *Plan) ExecuteRange(padded *tensor.Tensor, out *tensor.Tensor, from, to int) {
	switch p.Level {
	case NoOpt:
		p.rangeNoOpt(padded, out, from, to)
	case Reorder:
		p.rangeReorder(padded, out, from, to)
	case ReorderLRE:
		p.rangeLRE(padded, out, from, to)
	case Tuned:
		p.rangeTuned(padded, out, from, to)
	case Packed, PackedQ8:
		p.rangePacked(padded, out, from, to, nil, nil, false, false)
	}
}

// SupportsFused reports whether the plan's kernels fuse the bias + ReLU
// epilogue into the conv sweep. Only the packed FKW-direct backends do: their
// kernels initialize each output plane themselves, so fused execution also
// accepts un-zeroed (pooled) output buffers.
func (p *Plan) SupportsFused() bool { return p.Level == Packed || p.Level == PackedQ8 }

// ExecuteRangeFused computes output channels (in plan order) [from, to) like
// ExecuteRange, but the kernel initializes each output plane itself (to bias,
// or zero) and, when relu is set, clamps negatives before writing back — the
// fused epilogue. out therefore needs no pre-initialization: dirty scratch
// buffers from a pool are fine. Levels without fused kernels fall back to
// init + plain range + epilogue passes over just [from, to).
func (p *Plan) ExecuteRangeFused(padded, out *tensor.Tensor, from, to int, bias []float32, relu bool) {
	p.ExecuteRangeResidual(padded, out, from, to, bias, nil, relu)
}

// ExecuteRangeResidual computes output channels (in plan order) [from, to)
// with the fused residual epilogue: each output plane is initialized to the
// matching plane of shortcut (plus bias), the convolution accumulates on top,
// and relu optionally clamps — so a bottleneck tail (conv+bn → add → relu)
// runs as one sweep without materializing a separate elementwise add pass.
// shortcut must be [OutC, OutH, OutW] (nil is ExecuteRangeFused); out may
// hold garbage.
func (p *Plan) ExecuteRangeResidual(padded, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, relu bool) {
	if p.SupportsFused() {
		p.rangePacked(padded, out, from, to, bias, shortcut, true, relu)
		return
	}
	// Levels below Packed capture no kernel set: the generic epilogue.
	oHW, g := p.Conv.OutH*p.Conv.OutW, simd.Generic()
	for pos := from; pos < to; pos++ {
		f := p.FKR.FilterPerm[pos]
		initPlane(g.Init, out.Data[f*oHW:(f+1)*oHW], bias, shortcut, f)
	}
	p.ExecuteRange(padded, out, from, to) // every level accumulates
	if relu {
		for pos := from; pos < to; pos++ {
			f := p.FKR.FilterPerm[pos]
			g.ReLU(out.Data[f*oHW : (f+1)*oHW])
		}
	}
}

// PaddedLen returns the element count of the padded input — what PadInto's
// out view spans.
func (p *Plan) PaddedLen() int {
	c := p.Conv
	return c.InChannels() * (c.InH + 2*c.Pad) * (c.InW + 2*c.Pad)
}

// PadInto copies input into the zero-padded view out ([C, H+2p, W+2p] over
// scratch whose contents may be garbage): only the border is zeroed, the
// interior is fully overwritten. The graph executor prepares its sources with
// Plan.PrepareSource, which does the same per channel range.
func PadInto(input, out *tensor.Tensor, pd int) {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	n := (h + 2*pd) * (w + 2*pd)
	for ic := 0; ic < c; ic++ {
		padPlane(input.Data[ic*h*w:(ic+1)*h*w], h, w, pd, out.Data[ic*n:(ic+1)*n])
	}
}

// padPlane is PadInto for one h×w plane.
func padPlane(in []float32, h, w, pd int, plane []float32) {
	ph, pw := h+2*pd, w+2*pd
	clear(plane[:pd*pw])
	clear(plane[(ph-pd)*pw:])
	for y := 0; y < h; y++ {
		row := plane[(y+pd)*pw : (y+pd+1)*pw]
		clear(row[:pd])
		copy(row[pd:pd+w], in[y*w:(y+1)*w])
		clear(row[pd+w:])
	}
}

// DilatePadInto scatters input into out, a zero-dilated and zero-padded view
// whose contents may be garbage: element (y, x) of each input plane lands at
// (pd + y*stride, pd + x*stride), and every other element of out is zeroed.
// This is the staging step of transposed-conv execution — the stride-1
// equivalent conv then sweeps out like a padded input, so the FKW packed
// walk and microkernels apply unchanged. out's dims determine the dilated
// extent (trailing output-padding rows/cols stay zero).
func DilatePadInto(input, out *tensor.Tensor, stride, pd int) {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	n := out.Dim(1) * out.Dim(2)
	for ic := 0; ic < c; ic++ {
		dilatePadPlane(input.Data[ic*h*w:(ic+1)*h*w], h, w, stride, pd, out.Dim(2), out.Data[ic*n:(ic+1)*n])
	}
}

// dilatePadPlane is DilatePadInto for one h×w plane into a pw-wide one.
func dilatePadPlane(in []float32, h, w, stride, pd, pw int, plane []float32) {
	clear(plane)
	for y := 0; y < h; y++ {
		src := in[y*w : (y+1)*w]
		row := plane[(pd+y*stride)*pw+pd:]
		if stride == 1 {
			copy(row[:w], src)
			continue
		}
		for x, v := range src {
			row[x*stride] = v
		}
	}
}

// InstrStats aggregates the instruction-level quantities the mobile device
// model consumes.
type InstrStats struct {
	MACs        int64   // multiply-accumulates executed
	RegLoads    int64   // input register loads (after the level's LRE)
	Branches    int64   // pattern-dispatch branches in the inner loops
	WeightBytes int64   // compressed weight bytes streamed from memory
	ActBytes    int64   // activation bytes (input + output feature maps)
	Imbalance   float64 // thread load imbalance in [0,1] (0 = balanced)
	Groups      int     // FKR filter groups (GPU block mapping quality)
	// VecEff is the achievable SIMD-lane utilization: branchy per-kernel
	// dispatch (No-Opt) largely defeats vectorization; branchless pattern
	// runs vectorize fully.
	VecEff float64
	// CacheEff is the data-locality quality in (0,1]: conventional tiling
	// plus tuned blocking keeps the working set cache-resident.
	CacheEff float64
}

// Stats computes the instruction statistics of this plan analytically; it
// does not execute the layer.
func (p *Plan) Stats() InstrStats {
	c := p.Conv
	outPix := int64(c.OutH) * int64(c.OutW)
	loads := lre.Analyze(c, p.FKR, p.Tune)
	st := InstrStats{
		MACs:        int64(c.NNZ()) * outPix,
		WeightBytes: int64(p.FKW.TotalBytes(4)),
		ActBytes:    4 * (int64(c.InChannels())*int64(c.InH)*int64(c.InW) + int64(c.OutC)*outPix),
		Groups:      len(p.FKR.Groups),
	}
	st.Imbalance = p.FKR.LoadImbalance(c, p.Tune.Threads)
	switch p.Level {
	case NoOpt:
		st.RegLoads = loads.NoLRE
		// The "+No-opt" skeleton re-dispatches on the kernel's pattern for
		// every output position (Figure 7): one branch per kernel per pixel.
		st.Branches = int64(c.NonEmptyKernels()) * outPix
		st.VecEff, st.CacheEff = 0.6, 0.55
	case Reorder:
		st.RegLoads = loads.NoLRE
		st.Branches = p.FKR.BranchCount(c, 1)
		st.VecEff, st.CacheEff = 1.0, 0.55
	case ReorderLRE:
		st.RegLoads = loads.KernelLRE
		st.Branches = p.FKR.BranchCount(c, 1)
		st.VecEff, st.CacheEff = 1.0, 0.60
	case Tuned:
		st.RegLoads = loads.FilterLRE
		st.Branches = p.FKR.BranchCount(c, 1)
		// The tuned configuration's locality depends on the chosen loop
		// permutation (Figure 15): channel-innermost blocked preserves both
		// input reuse and FKW weight streaming.
		st.VecEff, st.CacheEff = 1.0, 0.90*permEff(p.Tune.Permute)
	case Packed:
		// FKW-direct streaming: kernel-level LRE on the input side, and the
		// weight side degenerates to one sequential sweep of the packed array
		// per filter — no gather traffic, so locality beats the tuned dense
		// layout even before tiling.
		st.RegLoads = loads.KernelLRE
		st.Branches = p.FKR.BranchCount(c, 1)
		st.VecEff, st.CacheEff = 1.0, 0.95
	case PackedQ8:
		// Same FKW-direct walk as Packed, but the weight stream is int8: a
		// quarter of the bytes contend with the activation tile for L1.
		st.RegLoads = loads.KernelLRE
		st.Branches = p.FKR.BranchCount(c, 1)
		st.VecEff, st.CacheEff = 1.0, 0.97
		st.WeightBytes = int64(p.FKW.OverheadBytes()) + p.q8Bytes
	}
	return st
}

// permEff is the relative cache quality of each loop order for the FKW
// layout, normalized so the default (cohwci_b) is 1.
func permEff(perm lr.Permutation) float64 {
	switch perm {
	case lr.PermCoCiHW:
		return 0.58
	case lr.PermCoHWCi:
		return 0.71
	case lr.PermCoCiHWBlock:
		return 0.96
	case lr.PermCoHWCiBlock:
		return 1.0
	}
	return 1.0
}
