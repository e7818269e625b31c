package codegen

// Connectivity-pruned 1×1 convolution plans. ResNet-50's bottlenecks and
// MobileNet-V2's expand/project layers are 1×1 convs; the paper applies
// uniform connectivity (kernel) pruning to them — a 1×1 kernel is a single
// weight, so connectivity pruning keeps the largest-magnitude weights per
// layer and the layer is a sparse-row × dense-plane product. The executor
// feeds it to the same tile microkernels as the 3×3 pattern walk: eight kept
// channels of a filter are the eight taps of one simd.Tile8 call over a
// block of output pixels.

import (
	"fmt"
	"math/rand"
	"sort"

	"patdnn/internal/model"
	"patdnn/internal/simd"
	"patdnn/internal/tensor"
)

// Plan1x1 is a compiled connectivity-pruned 1×1 conv layer.
type Plan1x1 struct {
	Name       string
	OutC, InC  int
	Stride     int
	InH, InW   int
	OutH, OutW int
	// The kept weights as one CSR: filter f retains input channels
	// idx[rowPtr[f]:rowPtr[f+1]] (ascending) with the matching weights in w.
	// Nothing is padded to the 8-tap kernel width; the executor pads a
	// filter's ragged tail in scratch.
	rowPtr []int32
	idx    []int32
	w      []float32
	// kern is the microkernel set captured at compile time, as in
	// Plan.buildPacked.
	kern simd.Kernels
}

// pixBlock1x1 is the output-pixel block one filter accumulates before moving
// on: 2 KB of output plus eight 2 KB input streams per Tile8 call sit in L1
// while the filter's kept channels are folded in.
const pixBlock1x1 = 512

// newPlan1x1 validates the weight tensor against the geometry and packs the
// weights selected by keep (an index into w.Data) into the CSR.
func newPlan1x1(name string, w *tensor.Tensor, geom struct{ Stride, InH, InW, OutH, OutW int }, keep func(i int) bool) (*Plan1x1, error) {
	if w.Rank() != 4 || w.Dim(2) != 1 || w.Dim(3) != 1 {
		return nil, fmt.Errorf("codegen: 1x1 conv %s requires [Co,Ci,1,1] weights", name)
	}
	outC, inC := w.Dim(0), w.Dim(1)
	if outC < 1 || inC < 1 || len(w.Data) != outC*inC {
		return nil, fmt.Errorf("codegen: 1x1 conv %s: %d weights do not fill [%d,%d,1,1]", name, len(w.Data), outC, inC)
	}
	if geom.Stride < 1 || geom.InH < 1 || geom.InW < 1 ||
		geom.OutH != (geom.InH-1)/geom.Stride+1 || geom.OutW != (geom.InW-1)/geom.Stride+1 {
		return nil, fmt.Errorf("codegen: 1x1 conv %s declares output %dx%d for input %dx%d at stride %d",
			name, geom.OutH, geom.OutW, geom.InH, geom.InW, geom.Stride)
	}
	nnz := 0
	for i := range w.Data {
		if keep(i) {
			nnz++
		}
	}
	p := &Plan1x1{
		Name: name, OutC: outC, InC: inC, Stride: geom.Stride,
		InH: geom.InH, InW: geom.InW, OutH: geom.OutH, OutW: geom.OutW,
		rowPtr: make([]int32, outC+1), idx: make([]int32, 0, nnz), w: make([]float32, 0, nnz),
		kern: simd.Active(),
	}
	for f := 0; f < outC; f++ {
		for ch := 0; ch < inC; ch++ {
			if i := f*inC + ch; keep(i) {
				p.idx = append(p.idx, int32(ch))
				p.w = append(p.w, w.Data[i])
			}
		}
		p.rowPtr[f+1] = int32(len(p.idx))
	}
	return p, nil
}

// Compile1x1 prunes a dense [OutC, InC, 1, 1] weight tensor to the keep
// kernels with the largest |w| (global top-k, the layerwise uniform rate)
// and builds the execution plan.
func Compile1x1(name string, w *tensor.Tensor, keep int, geom struct{ Stride, InH, InW, OutH, OutW int }) (*Plan1x1, error) {
	type kw struct {
		idx int
		mag float32
	}
	all := make([]kw, 0, len(w.Data))
	for i, v := range w.Data {
		m := v
		if m < 0 {
			m = -m
		}
		all = append(all, kw{i, m})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].mag != all[b].mag {
			return all[a].mag > all[b].mag
		}
		return all[a].idx < all[b].idx
	})
	if keep > len(all) {
		keep = len(all)
	}
	kept := make([]bool, len(all))
	for _, k := range all[:keep] {
		kept[k.idx] = true
	}
	return newPlan1x1(name, w, geom, func(i int) bool { return kept[i] })
}

// Compile1x1Pruned builds the execution plan from an already-pruned dense
// [Co,Ci,1,1] weight tensor, keeping exactly the nonzero weights (the form
// the graph compiler uses: pruning happened when the parameters were
// generated or loaded, so executor and reference share one weight set).
func Compile1x1Pruned(name string, w *tensor.Tensor, geom struct{ Stride, InH, InW, OutH, OutW int }) (*Plan1x1, error) {
	return newPlan1x1(name, w, geom, func(i int) bool { return w.Data[i] != 0 })
}

// Compile1x1FromLayer generates deterministic weights for a model layer and
// compiles it at the given connectivity rate.
func Compile1x1FromLayer(l *model.Layer, connRate float64, seed int64) (*Plan1x1, error) {
	if l.KH != 1 || l.KW != 1 {
		return nil, fmt.Errorf("codegen: layer %s is not 1x1", l.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	w := l.AllocWeights(rng)
	keep := l.OutC * l.InC
	if connRate > 1 {
		keep = int(float64(keep)/connRate + 0.5)
		if keep < 1 {
			keep = 1
		}
	}
	return Compile1x1(l.Name, w, keep, struct{ Stride, InH, InW, OutH, OutW int }{
		l.Stride, l.InH, l.InW, l.OutH, l.OutW,
	})
}

// NNZ returns the retained weight count.
func (p *Plan1x1) NNZ() int { return len(p.w) }

// KernelArch reports which microkernel set the plan dispatches to ("avx2"
// or "generic").
func (p *Plan1x1) KernelArch() string { return p.kern.Name }

// Execute runs the pruned 1×1 conv on [InC, InH, InW] input.
func (p *Plan1x1) Execute(input *tensor.Tensor, bias []float32) *tensor.Tensor {
	out := tensor.New(p.OutC, p.OutH, p.OutW)
	p.ExecuteRangeFused(input, out, 0, p.OutC, bias, nil, false)
	return out
}

// ExecuteRangeFused computes output channels [from, to) with the fused
// epilogue the graph executor uses: each output block is initialized by the
// kernel itself — to bias, or to the matching shortcut block plus bias when
// shortcut is non-nil (fused residual add) — the sparse channel combination
// accumulates on top through the microkernels, and relu optionally clamps
// before moving on. out may hold garbage (pooled arena buffers need no
// zeroing pass); 1×1 convs take the raw, unpadded input.
//
// A strided 1×1 conv is the stride-1 conv over the subsampled input, so
// Stride >= 2 gathers the InC planes per call into pooled scratch (InC·OutH·
// OutW floats against NNZ·OutH·OutW MACs) and runs the same walk; the graph
// executor subsamples once per input instead (PrepareSource) and calls
// ExecuteRangeSource.
//
// The microkernels are not bounds-checked, so the tensor sizes and the range
// are checked here, once per call, and a mismatch panics before any of them
// runs.
func (p *Plan1x1) ExecuteRangeFused(input, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, relu bool) {
	if len(input.Data) != p.InC*p.InH*p.InW {
		panic(fmt.Sprintf("codegen: 1x1 conv %s: input holds %d elements, want %dx%dx%d", p.Name, len(input.Data), p.InC, p.InH, p.InW))
	}
	sc := getScratch()
	defer putScratch(sc)
	in := input.Data
	if p.Stride > 1 {
		in = sc.floats(p.InC * p.OutH * p.OutW)
		p.PrepareSource(input, in, 0, p.InC)
	}
	p.ExecuteRangeSource(in, &sc.Scratch, out, from, to, bias, shortcut, relu)
}

// SourceLen is the element count of the subsampled input PrepareSource
// writes for a strided plan, and 0 at stride 1, where ExecuteRangeSource
// reads the input as is.
func (p *Plan1x1) SourceLen() int {
	if p.Stride == 1 {
		return 0
	}
	return p.InC * p.OutH * p.OutW
}

// PrepareSource subsamples input channels [c0, c1) of a strided plan into
// src (InC·OutH·OutW elements): element (oh, ow) of each plane is input
// (oh·Stride, ow·Stride). Disjoint channel ranges may be prepared
// concurrently.
func (p *Plan1x1) PrepareSource(input *tensor.Tensor, src []float32, c0, c1 int) {
	n := p.OutH * p.OutW
	switch {
	case c0 < 0 || c0 > c1 || c1 > p.InC:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: channel range [%d,%d) outside [0,%d]", p.Name, c0, c1, p.InC))
	case len(input.Data) != p.InC*p.InH*p.InW || len(src) != p.InC*n:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: input %d / source %d elements, want %dx%dx%d / %dx%dx%d", p.Name,
			len(input.Data), len(src), p.InC, p.InH, p.InW, p.InC, p.OutH, p.OutW))
	}
	for ch := c0; ch < c1; ch++ {
		plane := input.Data[ch*p.InH*p.InW : (ch+1)*p.InH*p.InW]
		dst := src[ch*n : (ch+1)*n]
		for oh := 0; oh < p.OutH; oh++ {
			row, drow := plane[oh*p.Stride*p.InW:], dst[oh*p.OutW:(oh+1)*p.OutW]
			for ow := range drow {
				drow[ow] = row[ow*p.Stride]
			}
		}
	}
}

// ExecuteRangeSource is ExecuteRangeFused over the input as the walk reads
// it: the input itself at stride 1, what PrepareSource wrote otherwise. sc is
// the caller's scratch for this range; ranges running concurrently need
// their own.
func (p *Plan1x1) ExecuteRangeSource(in []float32, sc *Scratch, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, relu bool) {
	n := p.OutH * p.OutW
	switch {
	case from < 0 || from > to || to > p.OutC:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: filter range [%d,%d) outside [0,%d]", p.Name, from, to, p.OutC))
	case len(in) != p.InC*n:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: source holds %d elements, want %dx%dx%d", p.Name, len(in), p.InC, p.OutH, p.OutW))
	case len(out.Data) != p.OutC*n:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: output holds %d elements, want %dx%dx%d", p.Name, len(out.Data), p.OutC, p.OutH, p.OutW))
	case shortcut != nil && len(shortcut.Data) != p.OutC*n:
		panic(fmt.Sprintf("codegen: 1x1 conv %s: shortcut holds %d elements, want %dx%dx%d", p.Name, len(shortcut.Data), p.OutC, p.OutH, p.OutW))
	}
	for f := from; f < to; f++ {
		var b float32
		if bias != nil {
			b = bias[f]
		}
		idx := p.idx[p.rowPtr[f]:p.rowPtr[f+1]]
		w := p.w[p.rowPtr[f]:p.rowPtr[f+1]]
		for c0 := 0; c0 < n; c0 += pixBlock1x1 {
			end := f*n + min(c0+pixBlock1x1, n)
			blk := out.Data[f*n+c0 : end]
			var src []float32
			if shortcut != nil {
				src = shortcut.Data[f*n+c0 : end]
			}
			p.kern.Init(blk, src, b)
			if n <= simd.MaxRunPlane {
				p.kern.Run1(&blk[0], len(blk), &in[c0], n, idx, w)
			} else {
				p.tileRow(sc, blk, in[c0:], idx, w)
			}
			if relu {
				p.kern.ReLU(blk)
			}
		}
	}
}

// KeptPrefix is the CSR row pointer: filter f keeps
// KeptPrefix()[f+1]−KeptPrefix()[f] weights. The graph executor cuts
// filter ranges on it so every worker gets an equal share of the MACs.
func (p *Plan1x1) KeptPrefix() []int32 { return p.rowPtr }

// tileRow folds filter row (idx, w) into blk through the tile kernels: eight
// kept channels are the eight taps of one Tile8 call over the block, in being
// the input at the block's first pixel.
func (p *Plan1x1) tileRow(sc *Scratch, blk, in []float32, idx []int32, w []float32) {
	kern, n, cols := p.kern, p.OutH*p.OutW, len(blk)
	k := 0
	for ; k+8 <= len(idx); k += 8 {
		for t, ch := range idx[k : k+8] {
			sc.s8[t] = &in[int(ch)*n]
		}
		kern.Tile8(&blk[0], cols, &sc.s8, cols, (*[8]float32)(w[k:]), cols, 1)
	}
	// The ragged tail: 5–7 kept channels take one more Tile8, 1–4 a Tile4,
	// with zero weights on the unused taps and their pointers repeating the
	// filter's last kept channel.
	if rem := len(idx) - k; rem > 4 {
		sc.w8 = [8]float32{}
		copy(sc.w8[:], w[k:])
		for t := range sc.s8 {
			sc.s8[t] = &in[int(idx[min(k+t, len(idx)-1)])*n]
		}
		kern.Tile8(&blk[0], cols, &sc.s8, cols, &sc.w8, cols, 1)
	} else if rem > 0 {
		sc.w4 = [4]float32{}
		copy(sc.w4[:], w[k:])
		for t := range sc.s4 {
			sc.s4[t] = &in[int(idx[min(k+t, len(idx)-1)])*n]
		}
		kern.Tile4(&blk[0], cols, &sc.s4, cols, &sc.w4, cols, 1)
	}
}

// MemoryBytes reports the resident footprint of the compiled plan: the CSR's
// 4-byte weight and 4-byte channel index per retained kernel plus its 4-byte
// row pointers.
func (p *Plan1x1) MemoryBytes() int64 {
	return 4 * int64(len(p.w)+len(p.idx)+len(p.rowPtr))
}

// Stats reports the instruction statistics for the device model: branchless,
// perfectly balanced (each filter's kernel list length varies slightly, but
// there is no pattern dispatch), streaming the CSR MemoryBytes accounts for.
func (p *Plan1x1) Stats() InstrStats {
	outPix := int64(p.OutH) * int64(p.OutW)
	nnz := int64(p.NNZ())
	// Load imbalance across 8 round-robin workers.
	loads := make([]int64, 8)
	for f := 0; f < p.OutC; f++ {
		loads[f%8] += int64(p.rowPtr[f+1] - p.rowPtr[f])
	}
	minL, maxL := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	imb := 0.0
	if maxL > 0 {
		imb = float64(maxL-minL) / float64(maxL)
	}
	return InstrStats{
		MACs:        nnz * outPix,
		RegLoads:    nnz * outPix, // one input load per weight per pixel
		Branches:    0,
		WeightBytes: p.MemoryBytes(),
		ActBytes: 4 * (int64(p.InC)*int64(p.InH)*int64(p.InW) +
			int64(p.OutC)*outPix),
		Imbalance: imb, Groups: 1, VecEff: 1.0, CacheEff: 0.9,
	}
}
