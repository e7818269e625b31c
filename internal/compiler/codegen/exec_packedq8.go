package codegen

// The PackedQ8 level's execution kernels: the register-tiled FKW-direct walk
// of exec_packed.go over an int8 weight stream.
//
// Quantization is symmetric per filter (internal/quant): every weight of
// reordered filter position pos is scale[orig] × level. The driver shares the
// blocking structure of the float32 packed level — filter group × row tile ×
// column chunk × kernel pairs — but each Tile8 call takes the widening
// Tile8Q8 form: the 8 int8 levels of a kernel pair are sign-extended,
// converted, and scaled in-register once per tile sweep (on amd64 a single
// VPMOVSXBD+VCVTDQ2PS+VMULPS prologue), so the dequantization cost is
// amortized over the whole row tile instead of paid per weight load. A
// trailing odd kernel widens its 4 levels through simd.WidenQ8 and takes the
// plain Tile4 form.
//
// Either way the weight side stays a pure stream — now a quarter the bytes of
// the FP32 packed level, which is the point: less weight traffic contending
// with the activation tile for L1, and ~4× more model versions resident under
// the registry's memory budget.

import (
	"patdnn/internal/quant"
	"patdnn/internal/simd"
	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

// packedQ8Run is one pattern run of a filter in the quantized packed view:
// taps decoded at compile time, ch aliasing FKW.Index, and q the int8 levels
// (4 per kernel, in tap order) aliasing the FKW8 stream.
type packedQ8Run struct {
	taps [4]splitTap
	ch   []uint16
	q    []int8
}

// packedQ8Filter is one reordered filter position's run list, its original
// output channel, and the filter's dequantization scale.
type packedQ8Filter struct {
	orig  int
	scale float32
	runs  []packedQ8Run
}

// buildPackedQ8 quantizes the FKW weight stream at 8 bits and precompiles the
// per-filter run views over it. The float32 weight streams (Conv.Weights and
// FKW.Weights) are then dropped from the plan via struct copies — never by
// mutating the caller's objects, which other plans may share — so a resident
// PackedQ8 plan really is ~4× smaller.
func (p *Plan) buildPackedQ8() error {
	c := p.Conv
	q, err := quant.Quantize(p.FKW, 8)
	if err != nil {
		return err
	}
	p.kern = simd.Active()
	p.q8Bytes = q.EncodedBytes()
	p.packedQ8 = make([]packedQ8Filter, c.OutC)
	wOff := 0
	for pos := 0; pos < c.OutC; pos++ {
		var runs []sparse.Run
		runs, _ = p.FKW.Runs(nil, pos, wOff)
		orig := int(p.FKW.Reorder[pos])
		pf := packedQ8Filter{orig: orig, scale: q.Scales[orig]}
		for _, r := range runs {
			n := 4 * len(r.Channels)
			taps, terr := sparse.TapOffsets(r.Pattern, c.KH, c.KW)
			if terr != nil {
				return terr
			}
			pf.runs = append(pf.runs, packedQ8Run{taps: splitTaps(taps, c.Stride, c.KW), ch: r.Channels, q: q.Weights[wOff : wOff+n]})
			wOff += n
		}
		p.packedQ8[pos] = pf
	}
	conv := *c
	conv.Weights = nil
	p.Conv = &conv
	fkw := *p.FKW
	fkw.Weights = nil
	p.FKW = &fkw
	return nil
}

// rangePackedQ8 is the plain ExecuteRange form: accumulate into a
// caller-initialized output, no epilogue. The scale folds into the widened
// tap registers, so accumulating on top of pre-initialized content (bias, a
// residual shortcut) costs nothing extra.
func (p *Plan) rangePackedQ8(padded, out *tensor.Tensor, from, to int) {
	p.rangePackedQ8Tiled(padded, out, from, to, nil, false, false)
}

// rangePackedQ8Fused executes reordered filter positions [from, to) with the
// fused epilogue: the driver initializes each plane to bias (or zero) itself
// and clamps negatives after the plane's last accumulation.
func (p *Plan) rangePackedQ8Fused(padded, out *tensor.Tensor, from, to int, bias []float32, relu bool) {
	p.rangePackedQ8Tiled(padded, out, from, to, bias, true, relu)
}

// rangePackedQ8Tiled is the shared quantized driver, mirroring
// rangePackedFused's blocking with the widening-multiply microkernels.
func (p *Plan) rangePackedQ8Tiled(padded, out *tensor.Tensor, from, to int, bias []float32, init, relu bool) {
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
	if kern.Tile8Q8 == nil {
		kern = simd.Generic()
	}
	sc := packedScratchPool.Get().(*packedScratch)
	defer putPackedScratch(sc)
	src := p.packedSource(padded, sc, from, to)
	for gBase := from; gBase < to; gBase += fg {
		gEnd := min(gBase+fg, to)
		if init {
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packedQ8[pos]
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
		for ohBase := 0; ohBase < c.OutH; ohBase += tileOH {
			rows := min(tileOH, c.OutH-ohBase)
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packedQ8[pos]
				scale := pf.scale
				oplane := out.Data[pf.orig*oHW:]
				for ri := range pf.runs {
					run := &pf.runs[ri]
					nk := len(run.ch)
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
							kern.Tile8Q8(dst, c.OutW, &sc.s8, src.rowStride, (*[8]int8)(run.q[4*ki:]), scale, cols, rows)
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
							simd.WidenQ8(run.q[4*ki:4*ki+4], scale, &sc.w4)
							kern.Tile4(dst, c.OutW, &sc.s4, src.rowStride, &sc.w4, cols, rows)
						}
					}
				}
			}
		}
		if relu {
			for pos := gBase; pos < gEnd; pos++ {
				pf := &p.packedQ8[pos]
				reluInPlace(out.Data[pf.orig*oHW : (pf.orig+1)*oHW])
			}
		}
	}
}
