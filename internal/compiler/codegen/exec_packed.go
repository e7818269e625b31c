package codegen

// The Packed level's execution kernels: FKW-direct register-tiled execution.
//
// Every other level gathers weights from the dense [OutC, InC, KH, KW] layout
// through wbase + dr*KW + dc index arithmetic, reconstructing per kernel what
// the FKW format (paper §5.3, Figure 10) already laid out: after Filter
// Kernel Reorder, a filter's surviving weights sit in one contiguous span of
// the Weights array, grouped into pattern runs whose shape is known from the
// Stride table. The packed driver exploits that directly — one linear sweep
// of Weights per filter, zero per-weight index arithmetic — and hands each
// span to a register-tiled microkernel (internal/simd).
//
// Blocking structure (the register-level load redundancy elimination of
// paper §5.4, Fig. 12):
//
//	filter group   (Tune.Unroll[0]) — filters sharing the input tile are
//	                                  executed together so the tile's rows are
//	                                  loaded from memory once per group
//	row tile       (Tune.Tile[1])   — output rows per microkernel sweep; the
//	                                  tap weights stay pinned in vector
//	                                  registers for the whole tile
//	column chunk   (Tune.Unroll[2]) — output columns per microkernel call,
//	                                  bounding the per-sweep working set
//	kernel pairs                    — two consecutive kernels of a run (8
//	                                  taps) per Tile8 call, halving output
//	                                  load/store traffic; a trailing odd
//	                                  kernel takes the Tile4 form
//
// The microkernel set is captured from simd.Active() when the plan is built,
// so a compiled plan's behavior is immutable: simd.ForceGeneric only affects
// plans compiled afterwards, and the hot path reads no globals.
//
// That blocking is for wide planes. A plane of at most simd.MaxRunPlane
// pixels has rows narrower than a vector — every tile call there is scalar
// tail behind a fixed call cost — and a strided conv (Stride s >= 2) has no
// unit column step to give the tiles at all. Both take the other contract:
// the input is first split by row phase and column tap — plane (a, dc) holds
// padded[i·s+a][j·s+dc] for every output column j, so tap (dr, dc) of output
// (oh, ow) reads plane (dr mod s, dc) at (oh + dr div s, ow) — which makes a
// tap's view of the whole output plane one contiguous span, and the plane is
// handed to a run kernel (simd.Run4 / Run4Q8) once per (filter, run): the
// output stays in registers while the run's whole kernel list streams past.
// Which path a plan takes is fixed when it is built, from its geometry alone
// (packedLayout).
//
// The source a driver reads — that split, or the zero-padded input of a
// tiled plan — is prepared once per input, not once per filter range:
// PrepareSource writes any channel range of it straight from the unpadded
// producer output (zero border included), so the graph executor runs it as
// one parallel pass over channels into an arena slot and every compute range
// reads the same slot through ExecuteRangeSource. The self-contained entry
// points (ExecuteRange*, Execute) take the padded input and prepare the
// source per call in pooled scratch instead.
//
// The bias (or residual) + ReLU epilogue fuses into the same walk: the
// driver initializes each output plane itself, so the serving runtime can
// hand it dirty arena buffers without a zeroing pass, and clamps it after the
// plane's last accumulation — both through the captured set's epilogue
// kernels (simd.Kernels.Init / ReLU), as vector code like the MACs.

import (
	"fmt"
	"sync"

	"patdnn/internal/pruned"
	"patdnn/internal/quant"
	"patdnn/internal/simd"
	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

// Scratch is the pointer and weight arrays one tiled driver call hands the
// microkernels. The calls go through func values, so escape analysis cannot
// prove the arrays don't leak and stack copies would be heap-allocated on
// every call; a caller running ranges concurrently owns one Scratch per
// concurrent range (the graph executor keeps one per compute part). The zero
// value is ready to use.
type Scratch struct {
	s8 [8]*float32
	s4 [4]*float32
	w8 [8]float32
	w4 [4]float32
}

// pooledScratch backs the self-contained entry points, which also prepare
// their source per call: buf holds the split or subsampled input.
type pooledScratch struct {
	Scratch
	buf []float32
}

var scratchPool = sync.Pool{New: func() any { return new(pooledScratch) }}

func getScratch() *pooledScratch { return scratchPool.Get().(*pooledScratch) }

// putScratch clears the held input pointers (so a pooled scratch never pins
// a retired activation buffer) and returns sc to the pool. The float scratch
// is the pool's own and stays.
func putScratch(sc *pooledScratch) {
	sc.Scratch = Scratch{}
	scratchPool.Put(sc)
}

// floats returns n floats of scratch with undefined contents.
func (sc *pooledScratch) floats(n int) []float32 {
	if cap(sc.buf) < n {
		sc.buf = make([]float32, n)
	}
	return sc.buf[:n]
}

// packedLayout is how a packed plan reads its input, fixed at build time from
// the geometry alone: resident plans (stride >= 2, or a non-depthwise layer
// whose output plane is at most simd.MaxRunPlane pixels) split the padded
// input by row phase × column tap and run plane-resident through the run
// kernels; the rest sweep the padded input itself through the tile kernels.
// A stride-1 depthwise run is one kernel long — nothing to stay resident
// across — so the split copy would cost more than it serves.
type packedLayout struct {
	resident    bool
	chStride    int // elements per input channel of the source
	planeStride int // elements per split plane (resident only)
	rowStride   int // elements per source row
}

func newPackedLayout(c *pruned.Conv) packedLayout {
	ph, pw := c.InH+2*c.Pad, c.InW+2*c.Pad
	if c.Stride == 1 && (c.Depthwise || c.OutH*c.OutW > simd.MaxRunPlane) {
		return packedLayout{chStride: ph * pw, rowStride: pw}
	}
	plane := (ph + c.Stride - 1) / c.Stride * c.OutW
	return packedLayout{resident: true, chStride: c.Stride * c.KW * plane, planeStride: plane, rowStride: c.OutW}
}

// tapOffsets lowers a pattern's (dr, dc) taps to element offsets within one
// source channel, for output pixel (0, 0).
func (l *packedLayout) tapOffsets(taps [][2]int, s, kw int) (off [4]int) {
	for t, d := range taps {
		off[t] = d[0]*l.rowStride + d[1]
		if l.resident {
			off[t] = ((d[0]%s)*kw+d[1])*l.planeStride + d[0]/s*l.rowStride
		}
	}
	return off
}

// sourceLen is the element count of the source the drivers read: the split
// for a resident plan, the padded input for a tiled one.
func (p *Plan) sourceLen() int {
	if p.lay.resident {
		return p.Conv.InChannels() * p.lay.chStride
	}
	return p.PaddedLen()
}

// SourceLen is the element count of the source PrepareSource writes and
// ExecuteRangeSource reads, for an input dilated by dil (a transposed conv's
// stride; 1 otherwise): the row-phase × column-tap split of a plane-resident
// plan, the zero-padded input of a tiled one. It is 0 when the plan reads its
// input as is — tiled, unpadded, undilated — and nothing needs preparing.
func (p *Plan) SourceLen(dil int) int {
	if !p.lay.resident && p.Conv.Pad == 0 && dil == 1 {
		return 0
	}
	return p.sourceLen()
}

// PrepareSource writes input channels [c0, c1) of the plan's source into src
// (SourceLen elements, prior contents irrelevant) from the unpadded input,
// whose elements land dil apart in the padded frame: the split of a resident
// plan, the padded input of a tiled one, zero border and dilation gaps
// included. Disjoint channel ranges may be prepared concurrently.
func (p *Plan) PrepareSource(input *tensor.Tensor, dil int, src []float32, c0, c1 int) {
	c := p.Conv
	ch, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	switch {
	case c0 < 0 || c0 > c1 || c1 > c.InChannels():
		panic(fmt.Sprintf("codegen: conv %s: channel range [%d,%d) outside [0,%d]", c.Name, c0, c1, c.InChannels()))
	case len(src) != p.sourceLen():
		panic(fmt.Sprintf("codegen: conv %s: source holds %d elements, want %d", c.Name, len(src), p.sourceLen()))
	case dil < 1 || ch != c.InChannels() || h < 1 || w < 1 || (h-1)*dil >= c.InH || (w-1)*dil >= c.InW ||
		dil == 1 && (h != c.InH || w != c.InW):
		panic(fmt.Sprintf("codegen: conv %s: input [%d,%d,%d] at dilation %d does not fill [%d,%d,%d]",
			c.Name, ch, h, w, dil, c.InChannels(), c.InH, c.InW))
	}
	ph, pw := c.InH+2*c.Pad, c.InW+2*c.Pad
	for ch := c0; ch < c1; ch++ {
		in := input.Data[ch*h*w : (ch+1)*h*w]
		switch {
		case p.lay.resident:
			p.splitPlane(in, h, w, c.Pad, dil, src[ch*p.lay.chStride:(ch+1)*p.lay.chStride])
		case dil == 1:
			padPlane(in, h, w, c.Pad, src[ch*ph*pw:(ch+1)*ph*pw])
		default:
			dilatePadPlane(in, h, w, dil, c.Pad, pw, src[ch*ph*pw:(ch+1)*ph*pw])
		}
	}
}

// splitPlane writes one channel's row-phase × column-tap split from its
// h×w input plane in, placed dil apart at offset pd in the padded frame:
// split row i of plane (a, dc) is padded row i·s+a sampled at columns
// j·s+dc, j < OutW, and a position no input element lands on reads 0.
func (p *Plan) splitPlane(in []float32, h, w, pd, dil int, dst []float32) {
	c, s, lay := p.Conv, p.Conv.Stride, &p.lay
	ph, ow := c.InH+2*c.Pad, c.OutW
	if s == 1 && dil == 1 && ow == w && pd <= w {
		// Same padding: plane dc is the input shifted by dc−pd elements
		// with the row ends that wrapped zeroed — one copy per plane.
		for dc := 0; dc < c.KW; dc++ {
			d := dst[dc*lay.planeStride : (dc+1)*lay.planeStride]
			clear(d[:pd*ow])
			clear(d[(pd+h)*ow:])
			body, sh := d[pd*ow:(pd+h)*ow], dc-pd
			if sh >= 0 {
				copy(body, in[sh:])
				for r := w - sh; r < len(body); r += w {
					clear(body[r : r+sh])
				}
			} else {
				copy(body[-sh:], in)
				for r := 0; r < len(body); r += w {
					clear(body[r : r-sh])
				}
			}
		}
		return
	}
	for dc := 0; dc < c.KW; dc++ {
		// Undilated, output columns [lo, hi) read input columns
		// lo·s+dc−pd onward, s apart; the rest are border.
		lo := min((max(pd-dc, 0)+s-1)/s, ow)
		hi := max(min((max(w+pd-dc, 0)+s-1)/s, ow), lo)
		x0 := lo*s + dc - pd
		for a := 0; a < s; a++ {
			d := dst[(a*c.KW+dc)*lay.planeStride:]
			for i, y := 0, a; y < ph; i, y = i+1, y+s {
				drow := d[i*ow : (i+1)*ow]
				iy := y - pd
				if dil > 1 {
					p.splitRowDilated(drow, in, h, w, iy, dc-pd, dil)
					continue
				}
				if iy < 0 || iy >= h {
					clear(drow)
					continue
				}
				row := in[iy*w : (iy+1)*w]
				for j := range drow[:lo] {
					drow[j] = 0
				}
				if s == 1 {
					copy(drow[lo:hi], row[x0:])
				} else {
					for j, x := lo, x0; j < hi; j, x = j+1, x+s {
						drow[j] = row[x]
					}
				}
				for j := hi; j < ow; j++ {
					drow[j] = 0
				}
			}
		}
	}
}

// splitRowDilated fills one split row from a dil-dilated input: column j
// reads dilated position (iy, j·s+x0), which holds an input element only on
// the dilation grid inside the input.
func (p *Plan) splitRowDilated(drow, in []float32, h, w, iy, x0, dil int) {
	clear(drow)
	if iy < 0 || iy%dil != 0 || iy/dil >= h {
		return
	}
	row := in[iy/dil*w : (iy/dil+1)*w]
	for j := range drow {
		if x := j*p.Conv.Stride + x0; x >= 0 && x%dil == 0 && x/dil < w {
			drow[j] = row[x/dil]
		}
	}
}

// preparePadded prepares the whole source from the padded input, for the
// self-contained entry points: the padded input itself for a tiled plan, its
// split into sc's scratch for a resident one.
func (p *Plan) preparePadded(padded *tensor.Tensor, sc *pooledScratch) []float32 {
	if !p.lay.resident {
		return padded.Data
	}
	c := p.Conv
	ph, pw := padded.Dim(1), padded.Dim(2)
	src := sc.floats(p.sourceLen())
	for ch := 0; ch < c.InChannels(); ch++ {
		p.splitPlane(padded.Data[ch*ph*pw:(ch+1)*ph*pw], ph, pw, 0, 1, src[ch*p.lay.chStride:(ch+1)*p.lay.chStride])
	}
	return src
}

// packedRun is one pattern run of a filter in the packed view: the taps are
// lowered once at compile time, and ch and w (or q, at PackedQ8) alias the FKW
// Index and weight arrays — executing a run IS walking the packed storage.
type packedRun struct {
	off [4]int    // the pattern's taps as source offsets (packedLayout.tapOffsets)
	ch  []uint16  // input channel per kernel (slice of FKW.Index)
	w   []float32 // 4 weights per kernel (slice of FKW.Weights); nil at PackedQ8
	q   []int8    // 4 int8 levels per kernel (slice of the FKW8 stream); nil at Packed
}

// packedFilter is one reordered filter position's run list, its original
// output channel (the FKW Reorder entry) and, at PackedQ8, the filter's
// dequantization scale.
type packedFilter struct {
	orig  int
	scale float32
	runs  []packedRun
}

// buildPacked precompiles the FKW arrays into per-filter run views over the
// float32 stream (q8 == nil) or the quantized one. The ch/w/q slices alias
// the packed storage; only the small run headers are allocated here, once, at
// compile time — the execution path allocates nothing. The active microkernel
// set is captured here too, fixing the plan's dispatch for its lifetime, and
// the dense weight tensor the packed walk never reads is dropped from the
// plan — via a struct copy, never by mutating the caller's Conv, which other
// plans may share.
//
// No microkernel is bounds-checked, so a layer whose declared output does not
// follow from its input, kernel, stride and padding is refused here, and the
// plan then proves (checkRun) that every span the kernels will be handed —
// channel × chStride + tap offset + the output extent — lies inside the
// source packedSource returns, before any kernel exists.
func (p *Plan) buildPacked(q8 *quant.FKW8) error {
	c := p.Conv
	if c.Stride < 1 || c.Pad < 0 || c.InH+2*c.Pad < c.KH || c.InW+2*c.Pad < c.KW ||
		c.OutH != tensor.ConvOutDim(c.InH, c.KH, c.Stride, c.Pad) || c.OutW != tensor.ConvOutDim(c.InW, c.KW, c.Stride, c.Pad) {
		return fmt.Errorf("codegen: layer %s declares output %dx%d for input %dx%d, kernel %dx%d, stride %d, pad %d",
			c.Name, c.OutH, c.OutW, c.InH, c.InW, c.KH, c.KW, c.Stride, c.Pad)
	}
	p.kern = simd.Active()
	p.lay = newPackedLayout(c)
	p.packed = make([]packedFilter, c.OutC)
	wOff := 0
	var runs []sparse.Run
	for pos := 0; pos < c.OutC; pos++ {
		start := wOff
		runs, wOff = p.FKW.Runs(runs, pos, wOff)
		pf := packedFilter{orig: int(p.FKW.Reorder[pos])}
		if q8 != nil {
			pf.scale = q8.Scales[pf.orig]
		}
		for _, r := range runs {
			taps, err := sparse.TapOffsets(r.Pattern, c.KH, c.KW)
			if err != nil {
				return err
			}
			run := packedRun{off: p.lay.tapOffsets(taps, c.Stride, c.KW), ch: r.Channels}
			if n := len(r.Weights); q8 != nil {
				run.q = q8.Weights[start : start+n]
				start += n
			} else {
				run.w = r.Weights
			}
			if err := p.checkRun(&run); err != nil {
				return err
			}
			pf.runs = append(pf.runs, run)
		}
		p.packed[pos] = pf
	}
	conv := *c
	conv.Weights = nil
	p.Conv = &conv
	return nil
}

// checkRun is the build-time bounds proof for one run: the farthest element
// any tap of it reaches — the whole output plane as one span on the resident
// path, the last row of the last tile on the tiled one — lies inside the
// source channel, and every kernel's channel inside the source.
func (p *Plan) checkRun(run *packedRun) error {
	c := p.Conv
	channels := c.InChannels()
	if c.Depthwise {
		channels = 1 // a depthwise run addresses its filter's own channel as 0
	}
	for _, ch := range run.ch {
		if int(ch) >= channels {
			return fmt.Errorf("codegen: layer %s: kernel reads input channel %d of %d", c.Name, ch, channels)
		}
	}
	span := c.OutH * c.OutW
	if !p.lay.resident {
		span = (c.OutH-1)*p.lay.rowStride + c.OutW
	}
	for _, off := range run.off {
		if off < 0 || off+span > p.lay.chStride {
			return fmt.Errorf("codegen: layer %s: a %dx%d output at tap offset %d leaves its %d-element source channel (input %dx%d, stride %d, pad %d)",
				c.Name, c.OutH, c.OutW, off, p.lay.chStride, c.InH, c.InW, c.Stride, c.Pad)
		}
	}
	return nil
}

// checkPackedCall is the once-per-call half of the unchecked kernels'
// boundary: the source must hold exactly want elements, the output and
// shortcut exactly the plan's, and the range must lie in [0, OutC], or the
// driver panics before any kernel runs. shortcut is nil outside the residual
// form.
func (p *Plan) checkPackedCall(src, want int, out, shortcut *tensor.Tensor, from, to int) {
	c := p.Conv
	switch {
	case from < 0 || from > to || to > c.OutC:
		panic(fmt.Sprintf("codegen: conv %s: filter range [%d,%d) outside [0,%d]", c.Name, from, to, c.OutC))
	case src != want:
		panic(fmt.Sprintf("codegen: conv %s: input holds %d elements, want %d (%dx%dx%d padded)", c.Name,
			src, want, c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad))
	case len(out.Data) != c.OutC*c.OutH*c.OutW:
		panic(fmt.Sprintf("codegen: conv %s: output holds %d elements, want %dx%dx%d", c.Name, len(out.Data), c.OutC, c.OutH, c.OutW))
	case shortcut != nil && len(shortcut.Data) != len(out.Data):
		panic(fmt.Sprintf("codegen: conv %s: shortcut holds %d elements, want %dx%dx%d", c.Name, len(shortcut.Data), c.OutC, c.OutH, c.OutW))
	}
}

// rangePacked executes reordered filter positions [from, to) of a Packed or
// PackedQ8 plan over the padded input, preparing the source in pooled
// scratch. When init is set the driver writes each output plane's initial
// value (the shortcut plane, plus bias, or zero) itself — otherwise it
// accumulates on top of what the caller put there — and relu applies the
// fused ReLU epilogue after the plane's last accumulation.
func (p *Plan) rangePacked(padded, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, init, relu bool) {
	p.checkPackedCall(len(padded.Data), p.PaddedLen(), out, shortcut, from, to)
	sc := getScratch()
	defer putScratch(sc)
	p.rangeSource(p.preparePadded(padded, sc), &sc.Scratch, out, from, to, bias, shortcut, init, relu)
}

// ExecuteRangeSource is ExecuteRangeFused — or, with a non-nil shortcut,
// ExecuteRangeResidual — over a source PrepareSource wrote (or, when
// SourceLen is 0, the unpadded input itself). sc is the caller's scratch for
// this range; ranges running concurrently need their own. Packed levels only.
func (p *Plan) ExecuteRangeSource(src []float32, sc *Scratch, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, relu bool) {
	if !p.SupportsFused() {
		panic(fmt.Sprintf("codegen: conv %s: ExecuteRangeSource needs a packed plan, not %v", p.Conv.Name, p.Level))
	}
	p.checkPackedCall(len(src), p.sourceLen(), out, shortcut, from, to)
	p.rangeSource(src, sc, out, from, to, bias, shortcut, true, relu)
}

func (p *Plan) rangeSource(src []float32, sc *Scratch, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, init, relu bool) {
	if p.lay.resident {
		p.rangeResident(src, out, from, to, bias, shortcut, init, relu)
	} else {
		p.rangeTiled(src, sc, out, from, to, bias, shortcut, init, relu)
	}
}

// initPlane writes the fused epilogue's initial value of one output plane
// through init: the matching shortcut plane (when given) plus the bias (when
// given).
func initPlane(init simd.InitFunc, plane []float32, bias []float32, shortcut *tensor.Tensor, orig int) {
	var b float32
	if bias != nil {
		b = bias[orig]
	}
	var src []float32
	if shortcut != nil {
		src = shortcut.Data[orig*len(plane) : (orig+1)*len(plane)]
	}
	init(plane, src, b)
}

// rangeResident is the run-kernel walk: one kernel call per (filter, run)
// over the whole output plane, which the split source made one contiguous
// span per tap.
func (p *Plan) rangeResident(src []float32, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, init, relu bool) {
	c, kern, chStride := p.Conv, p.kern, p.lay.chStride
	n := c.OutH * c.OutW
	for pos := from; pos < to; pos++ {
		pf := &p.packed[pos]
		plane := out.Data[pf.orig*n : (pf.orig+1)*n]
		if init {
			initPlane(kern.Init, plane, bias, shortcut, pf.orig)
		}
		base := &src[0]
		if c.Depthwise {
			base = &src[pf.orig*chStride]
		}
		for ri := range pf.runs {
			run := &pf.runs[ri]
			if run.q != nil {
				kern.Run4Q8(&plane[0], n, base, chStride, run.ch, run.q, pf.scale, &run.off)
			} else {
				kern.Run4(&plane[0], n, base, chStride, run.ch, run.w, &run.off)
			}
		}
		if relu {
			kern.ReLU(plane)
		}
	}
}

// rangeTiled is the register-tiled walk over the padded input: filter group
// × row tile × column chunk × kernel pairs, as drawn at the top of the file.
// A PackedQ8 kernel pair (or trailing odd kernel) widens its int8 levels,
// scale folded in, into sc ahead of the same Tile8 (Tile4) call.
func (p *Plan) rangeTiled(src []float32, sc *Scratch, out *tensor.Tensor, from, to int, bias []float32, shortcut *tensor.Tensor, init, relu bool) {
	c, kern, lay := p.Conv, p.kern, &p.lay
	oHW := c.OutH * c.OutW
	tileOH := p.Tune.Tile[1]
	if tileOH < 1 || tileOH > c.OutH {
		tileOH = c.OutH
	}
	fg := p.Tune.Unroll[0]
	if fg < 1 {
		fg = 1
	}
	pbw := p.Tune.Unroll[2]
	if pbw < 1 || pbw > c.OutW {
		pbw = c.OutW
	}
	for gBase := from; gBase < to; gBase += fg {
		gEnd := min(gBase+fg, to)
		if init {
			for pos := gBase; pos < gEnd; pos++ {
				orig := p.packed[pos].orig
				initPlane(kern.Init, out.Data[orig*oHW:(orig+1)*oHW], bias, shortcut, orig)
			}
		}
		// Row tile outside the group's filter loop: every filter of the group
		// replays the same input rows while they are still cache-resident.
		for ohBase := 0; ohBase < c.OutH; ohBase += tileOH {
			rows := min(tileOH, c.OutH-ohBase)
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packed[pos]
				oplane := out.Data[pf.orig*oHW:]
				for ri := range pf.runs {
					run := &pf.runs[ri]
					nk := len(run.ch)
					for owBase := 0; owBase < c.OutW; owBase += pbw {
						cols := min(pbw, c.OutW-owBase)
						dst := &oplane[ohBase*c.OutW+owBase]
						// The tile's origin within a source channel.
						o := ohBase*lay.rowStride + owBase
						o0, o1, o2, o3 := o+run.off[0], o+run.off[1], o+run.off[2], o+run.off[3]
						ki := 0
						for ; ki+2 <= nk; ki += 2 {
							chA, chB := int(run.ch[ki]), int(run.ch[ki+1])
							if c.Depthwise {
								chA, chB = pf.orig, pf.orig
							}
							ipA := src[chA*lay.chStride:]
							ipB := src[chB*lay.chStride:]
							sc.s8 = [8]*float32{
								&ipA[o0], &ipA[o1], &ipA[o2], &ipA[o3],
								&ipB[o0], &ipB[o1], &ipB[o2], &ipB[o3],
							}
							w8 := &sc.w8
							if run.q != nil {
								simd.WidenQ8(run.q[4*ki:4*ki+8], pf.scale, w8[:])
							} else {
								w8 = (*[8]float32)(run.w[4*ki:])
							}
							kern.Tile8(dst, c.OutW, &sc.s8, lay.rowStride, w8, cols, rows)
						}
						if ki < nk {
							chA := int(run.ch[ki])
							if c.Depthwise {
								chA = pf.orig
							}
							ipA := src[chA*lay.chStride:]
							sc.s4 = [4]*float32{&ipA[o0], &ipA[o1], &ipA[o2], &ipA[o3]}
							w4 := &sc.w4
							if run.q != nil {
								simd.WidenQ8(run.q[4*ki:4*ki+4], pf.scale, w4[:])
							} else {
								w4 = (*[4]float32)(run.w[4*ki:])
							}
							kern.Tile4(dst, c.OutW, &sc.s4, lay.rowStride, w4, cols, rows)
						}
					}
				}
			}
		}
		if relu {
			for pos := gBase; pos < gEnd; pos++ {
				orig := p.packed[pos].orig
				kern.ReLU(out.Data[orig*oHW : (orig+1)*oHW])
			}
		}
	}
}
