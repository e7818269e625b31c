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
// each padded input plane is first split (pooled scratch) by row phase and
// column tap — plane (a, dc) holds padded[i·s+a][j·s+dc] for every output
// column j, so tap (dr, dc) of output (oh, ow) reads plane (dr mod s, dc) at
// (oh + dr div s, ow) — which makes a tap's view of the whole output plane
// one contiguous span, and the plane is handed to a run kernel (simd.Run4 /
// Run4Q8) once per (filter, run): the output stays in registers while the
// run's whole kernel list streams past. Which path a plan takes is fixed when
// it is built, from its geometry alone (packedLayout). Depthwise convs split
// only the planes of the filters in range.
//
// The bias + ReLU epilogue fuses into the same walk: the driver initializes
// each output plane itself, so the serving runtime can hand it dirty pooled
// buffers without a zeroing pass.

import (
	"fmt"
	"sync"

	"patdnn/internal/pruned"
	"patdnn/internal/quant"
	"patdnn/internal/simd"
	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

// packedScratch holds the pointer/weight buffers a driver call hands to the
// microkernels, and the float scratch a strided layer lowers its input into.
// The calls go through func values, so escape analysis cannot prove the
// arrays don't leak and stack copies would be heap-allocated on every call;
// pooling one scratch per driver invocation keeps the serving hot path
// allocation-free.
type packedScratch struct {
	s8  [8]*float32
	s4  [4]*float32
	w8  [8]float32
	w4  [4]float32
	buf []float32
}

var packedScratchPool = sync.Pool{New: func() any { return new(packedScratch) }}

// putPackedScratch clears the held input pointers (so a pooled scratch never
// pins a retired activation buffer) and returns sc to the pool. The float
// scratch is the pool's own and stays.
func putPackedScratch(sc *packedScratch) {
	*sc = packedScratch{buf: sc.buf}
	packedScratchPool.Put(sc)
}

// floats returns n floats of scratch with undefined contents.
func (sc *packedScratch) floats(n int) []float32 {
	if cap(sc.buf) < n {
		sc.buf = make([]float32, n)
	}
	return sc.buf[:n]
}

// reluInPlace is the one ReLU epilogue of every conv driver. The builtin max
// compiles without a branch; the compare-and-store loop it replaces
// mispredicted on every other element of a typical pre-activation plane. NaN
// passes through.
func reluInPlace(v []float32) {
	for i, x := range v {
		v[i] = max(x, 0)
	}
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

// packedSource returns the data reordered filter positions [from, to) read:
// padded itself, or for a resident plan its split into sc's scratch.
func (p *Plan) packedSource(padded *tensor.Tensor, sc *packedScratch, from, to int) []float32 {
	if !p.lay.resident {
		return padded.Data
	}
	c, s, lay := p.Conv, p.Conv.Stride, &p.lay
	ph, pw := padded.Dim(1), padded.Dim(2)
	data := sc.floats(c.InChannels() * lay.chStride)
	split := func(ch int) {
		in := padded.Data[ch*ph*pw : (ch+1)*ph*pw]
		dst := data[ch*lay.chStride:]
		for a := 0; a < s; a++ {
			for dc := 0; dc < c.KW; dc++ {
				d := dst[(a*c.KW+dc)*lay.planeStride:]
				for i, y := 0, a; y < ph; i, y = i+1, y+s {
					row, drow := in[y*pw+dc:(y+1)*pw], d[i*c.OutW:(i+1)*c.OutW]
					if s == 1 {
						copy(drow, row)
						continue
					}
					for j := range drow {
						drow[j] = row[j*s]
					}
				}
			}
		}
	}
	if c.Depthwise {
		for pos := from; pos < to; pos++ {
			split(p.packed[pos].orig)
		}
	} else {
		for ch := 0; ch < c.InChannels(); ch++ {
			split(ch)
		}
	}
	return data
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
// boundary: the tensors must hold exactly the plan's element counts and the
// range must lie in [0, OutC], or the driver panics before any kernel runs.
// shortcut is nil outside the residual form.
func (p *Plan) checkPackedCall(padded, out, shortcut *tensor.Tensor, from, to int) {
	c := p.Conv
	switch {
	case from < 0 || from > to || to > c.OutC:
		panic(fmt.Sprintf("codegen: conv %s: filter range [%d,%d) outside [0,%d]", c.Name, from, to, c.OutC))
	case len(padded.Data) != p.PaddedLen():
		panic(fmt.Sprintf("codegen: conv %s: padded input holds %d elements, want %dx%dx%d", c.Name,
			len(padded.Data), c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad))
	case len(out.Data) != c.OutC*c.OutH*c.OutW:
		panic(fmt.Sprintf("codegen: conv %s: output holds %d elements, want %dx%dx%d", c.Name, len(out.Data), c.OutC, c.OutH, c.OutW))
	case shortcut != nil && len(shortcut.Data) != len(out.Data):
		panic(fmt.Sprintf("codegen: conv %s: shortcut holds %d elements, want %dx%dx%d", c.Name, len(shortcut.Data), c.OutC, c.OutH, c.OutW))
	}
}

// rangePacked executes reordered filter positions [from, to) of a Packed or
// PackedQ8 plan. When init is set the driver writes each output plane's
// initial value (bias, or zero) itself — otherwise it accumulates on top of
// what the caller put there (a residual shortcut) — and relu applies the
// fused ReLU epilogue after the plane's last accumulation. At PackedQ8 the
// filter scale folds into the widened weights, so neither costs extra.
func (p *Plan) rangePacked(padded, out *tensor.Tensor, from, to int, bias []float32, init, relu bool) {
	p.checkPackedCall(padded, out, nil, from, to)
	sc := packedScratchPool.Get().(*packedScratch)
	defer putPackedScratch(sc)
	src := p.packedSource(padded, sc, from, to)
	if p.lay.resident {
		p.rangeResident(src, out, from, to, bias, init, relu)
	} else {
		p.rangeTiled(src, sc, out, from, to, bias, init, relu)
	}
}

// initPlane writes the fused epilogue's initial value of one output plane.
func initPlane(plane []float32, bias []float32, orig int) {
	v := float32(0)
	if bias != nil {
		v = bias[orig]
	}
	for i := range plane {
		plane[i] = v
	}
}

// rangeResident is the run-kernel walk: one kernel call per (filter, run)
// over the whole output plane, which the split source made one contiguous
// span per tap.
func (p *Plan) rangeResident(src []float32, out *tensor.Tensor, from, to int, bias []float32, init, relu bool) {
	c, kern, chStride := p.Conv, p.kern, p.lay.chStride
	n := c.OutH * c.OutW
	for pos := from; pos < to; pos++ {
		pf := &p.packed[pos]
		plane := out.Data[pf.orig*n : (pf.orig+1)*n]
		if init {
			initPlane(plane, bias, pf.orig)
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
			reluInPlace(plane)
		}
	}
}

// rangeTiled is the register-tiled walk over the padded input: filter group
// × row tile × column chunk × kernel pairs, as drawn at the top of the file.
// A PackedQ8 kernel pair (or trailing odd kernel) widens its int8 levels,
// scale folded in, into pooled scratch ahead of the same Tile8 (Tile4) call.
func (p *Plan) rangeTiled(src []float32, sc *packedScratch, out *tensor.Tensor, from, to int, bias []float32, init, relu bool) {
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
				initPlane(out.Data[orig*oHW:(orig+1)*oHW], bias, orig)
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
				reluInPlace(out.Data[orig*oHW : (orig+1)*oHW])
			}
		}
	}
}
