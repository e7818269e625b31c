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
// The microkernel contract is unit column step, so a strided convolution
// (Stride s >= 2) first splits each padded input plane (pooled scratch) by
// row phase and column tap: plane (a, dc) holds padded[i·s+a][j·s+dc] for
// every output column j. Tap (dr, dc) of output (oh, ow) then reads plane
// (dr mod s, dc) at (oh + dr div s, ow) — a unit column step again, and a row
// stride equal to the output's, so a full-width tile is contiguous on both
// sides and goes to the microkernel as one long row (no per-row vector tail;
// a 4×4 output plane is two vectors instead of sixteen scalars). The same
// blocked walk runs over the split planes. Depthwise convs split only the
// planes of the filters in range.
//
// The bias + ReLU epilogue fuses into the same walk: the driver initializes
// each output plane itself, so the serving runtime can hand it dirty pooled
// buffers without a zeroing pass.

import (
	"sync"

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

// splitTap is one pattern tap lowered for the plan's stride s (see
// packedSource): the plane of a channel's split it reads and its displacement
// there. At stride 1 there is no split: plane 0 and (dr, dc) itself.
type splitTap struct{ plane, dr, dc int }

func splitTaps(taps [][2]int, s, kw int) (st [4]splitTap) {
	for t, d := range taps {
		st[t] = splitTap{0, d[0], d[1]}
		if s > 1 {
			st[t] = splitTap{(d[0]%s)*kw + d[1], d[0] / s, 0}
		}
	}
	return st
}

// packedSrc is the input view a packed driver sweeps: the padded input itself
// at stride 1, its row-phase × column-tap split otherwise.
type packedSrc struct {
	data        []float32
	chStride    int // elements per input channel
	planeStride int // elements per split plane
	rowStride   int // elements per row
}

// tap returns the offset, within a channel, of tap t for output row ohBase,
// column 0.
func (s *packedSrc) tap(t splitTap, ohBase int) int {
	return t.plane*s.planeStride + (ohBase+t.dr)*s.rowStride + t.dc
}

// tile returns the microkernel's view of a cols×rows output tile: over a
// split source a full-width tile is contiguous in input and output alike, so
// it becomes one row.
func (s *packedSrc) tile(cols, rows, outW int) (int, int) {
	if cols == outW && s.rowStride == outW {
		return cols * rows, 1
	}
	return cols, rows
}

// packedSource returns the view reordered filter positions [from, to) read
// their input through, splitting padded into sc's scratch when the plan is
// strided.
func (p *Plan) packedSource(padded *tensor.Tensor, sc *packedScratch, from, to int) packedSrc {
	c, s := p.Conv, p.Conv.Stride
	ph, pw := padded.Dim(1), padded.Dim(2)
	if s == 1 {
		return packedSrc{data: padded.Data, chStride: ph * pw, rowStride: pw}
	}
	plane := (ph + s - 1) / s * c.OutW
	src := packedSrc{chStride: s * c.KW * plane, planeStride: plane, rowStride: c.OutW}
	src.data = sc.floats(c.InChannels() * src.chStride)
	split := func(ch int) {
		in := padded.Data[ch*ph*pw : (ch+1)*ph*pw]
		dst := src.data[ch*src.chStride:]
		for a := 0; a < s; a++ {
			for dc := 0; dc < c.KW; dc++ {
				d := dst[(a*c.KW+dc)*plane:]
				for i, y := 0, a; y < ph; i, y = i+1, y+s {
					row, drow := in[y*pw+dc:(y+1)*pw], d[i*c.OutW:(i+1)*c.OutW]
					for j := range drow {
						drow[j] = row[j*s]
					}
				}
			}
		}
	}
	if c.Depthwise {
		for pos := from; pos < to; pos++ {
			split(int(p.FKW.Reorder[pos]))
		}
	} else {
		for ch := 0; ch < c.InChannels(); ch++ {
			split(ch)
		}
	}
	return src
}

// packedRun is one pattern run of a filter in the packed view: the taps are
// decoded once at compile time, and ch/w alias the FKW Index and Weights
// arrays — executing a run IS walking the packed storage.
type packedRun struct {
	taps [4]splitTap // the pattern's taps, lowered for the plan's stride
	ch   []uint16    // input channel per kernel (slice of FKW.Index)
	w    []float32   // 4 weights per kernel (slice of FKW.Weights)
}

// packedFilter is one reordered filter position's run list plus its original
// output channel (the FKW Reorder entry).
type packedFilter struct {
	orig int
	runs []packedRun
}

// buildPacked precompiles the FKW arrays into per-filter run views. The
// Channels/Weights slices alias the FKW storage; only the small run headers
// are allocated here, once, at compile time — the execution path allocates
// nothing. The active microkernel set is captured here too, fixing the
// plan's dispatch for its lifetime.
func (p *Plan) buildPacked() error {
	c := p.Conv
	p.kern = simd.Active()
	p.packed = make([]packedFilter, c.OutC)
	wOff := 0
	var runs []sparse.Run
	for pos := 0; pos < c.OutC; pos++ {
		runs, wOff = p.FKW.Runs(runs, pos, wOff)
		pf := packedFilter{orig: int(p.FKW.Reorder[pos])}
		for _, r := range runs {
			taps, err := sparse.TapOffsets(r.Pattern, c.KH, c.KW)
			if err != nil {
				return err
			}
			pf.runs = append(pf.runs, packedRun{taps: splitTaps(taps, c.Stride, c.KW), ch: r.Channels, w: r.Weights})
		}
		p.packed[pos] = pf
	}
	return nil
}

// rangePacked is the plain ExecuteRange form: accumulate into a
// caller-initialized output, no epilogue.
func (p *Plan) rangePacked(padded, out *tensor.Tensor, from, to int) {
	p.rangePackedFused(padded, out, from, to, nil, false, false)
}

// rangePackedFused executes reordered filter positions [from, to) by walking
// the packed runs through the register-tiled microkernels. When init is set
// the driver writes each output plane's initial value (bias, or zero) itself;
// relu applies the fused ReLU epilogue after the plane's last accumulation.
func (p *Plan) rangePackedFused(padded, out *tensor.Tensor, from, to int, bias []float32, init, relu bool) {
	c := p.Conv
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
	kern := p.kern
	if kern.Tile8 == nil {
		kern = simd.Generic()
	}
	sc := packedScratchPool.Get().(*packedScratch)
	defer putPackedScratch(sc)
	src := p.packedSource(padded, sc, from, to)
	for gBase := from; gBase < to; gBase += fg {
		gEnd := min(gBase+fg, to)
		if init {
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packed[pos]
				v := float32(0)
				if bias != nil {
					v = bias[pf.orig]
				}
				oplane := out.Data[pf.orig*oHW : (pf.orig+1)*oHW]
				for i := range oplane {
					oplane[i] = v
				}
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
					// Tap row offsets for this tile, owBase added per chunk.
					o0, o1 := src.tap(run.taps[0], ohBase), src.tap(run.taps[1], ohBase)
					o2, o3 := src.tap(run.taps[2], ohBase), src.tap(run.taps[3], ohBase)
					for owBase := 0; owBase < c.OutW; owBase += pbw {
						cols, rows := src.tile(min(pbw, c.OutW-owBase), rows, c.OutW)
						dst := &oplane[ohBase*c.OutW+owBase]
						ki := 0
						for ; ki+2 <= nk; ki += 2 {
							chA, chB := int(run.ch[ki]), int(run.ch[ki+1])
							if c.Depthwise {
								chA, chB = pf.orig, pf.orig
							}
							ipA := src.data[chA*src.chStride:]
							ipB := src.data[chB*src.chStride:]
							sc.s8 = [8]*float32{
								&ipA[o0+owBase], &ipA[o1+owBase], &ipA[o2+owBase], &ipA[o3+owBase],
								&ipB[o0+owBase], &ipB[o1+owBase], &ipB[o2+owBase], &ipB[o3+owBase],
							}
							kern.Tile8(dst, c.OutW, &sc.s8, src.rowStride, (*[8]float32)(run.w[4*ki:]), cols, rows)
						}
						if ki < nk {
							chA := int(run.ch[ki])
							if c.Depthwise {
								chA = pf.orig
							}
							ipA := src.data[chA*src.chStride:]
							sc.s4 = [4]*float32{
								&ipA[o0+owBase], &ipA[o1+owBase], &ipA[o2+owBase], &ipA[o3+owBase],
							}
							kern.Tile4(dst, c.OutW, &sc.s4, src.rowStride, (*[4]float32)(run.w[4*ki:]), cols, rows)
						}
					}
				}
			}
		}
		if relu {
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packed[pos]
				reluInPlace(out.Data[pf.orig*oHW : (pf.orig+1)*oHW])
			}
		}
	}
}
