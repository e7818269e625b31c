package simd

import "unsafe"

// The pure-Go microkernels. These are the noasm/unsupported-CPU fallback and
// the reference implementation the vector kernels are pinned against; they
// share the exact iteration-domain contract documented on the package.
//
// The row views are materialized as slices so the compiler can eliminate
// bounds checks in the inner loops; the unsafe.Slice spans cover exactly the
// elements the tile touches ((rows-1)·stride + cols), never more.

func rowSpan(p *float32, stride, cols, rows int) []float32 {
	return unsafe.Slice(p, (rows-1)*stride+cols)
}

func fmaTile4Generic(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int) {
	if cols <= 0 || rows <= 0 {
		return
	}
	d := rowSpan(dst, dstStride, cols, rows)
	s0 := rowSpan(src[0], srcStride, cols, rows)
	s1 := rowSpan(src[1], srcStride, cols, rows)
	s2 := rowSpan(src[2], srcStride, cols, rows)
	s3 := rowSpan(src[3], srcStride, cols, rows)
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for r := 0; r < rows; r++ {
		do, so := r*dstStride, r*srcStride
		drow := d[do : do+cols]
		r0 := s0[so : so+cols]
		r1 := s1[so : so+cols]
		r2 := s2[so : so+cols]
		r3 := s3[so : so+cols]
		for c := range drow {
			drow[c] += w0*r0[c] + w1*r1[c] + w2*r2[c] + w3*r3[c]
		}
	}
}

func fmaTile8Generic(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int) {
	if cols <= 0 || rows <= 0 {
		return
	}
	d := rowSpan(dst, dstStride, cols, rows)
	s0 := rowSpan(src[0], srcStride, cols, rows)
	s1 := rowSpan(src[1], srcStride, cols, rows)
	s2 := rowSpan(src[2], srcStride, cols, rows)
	s3 := rowSpan(src[3], srcStride, cols, rows)
	s4 := rowSpan(src[4], srcStride, cols, rows)
	s5 := rowSpan(src[5], srcStride, cols, rows)
	s6 := rowSpan(src[6], srcStride, cols, rows)
	s7 := rowSpan(src[7], srcStride, cols, rows)
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	w4, w5, w6, w7 := w[4], w[5], w[6], w[7]
	for r := 0; r < rows; r++ {
		do, so := r*dstStride, r*srcStride
		drow := d[do : do+cols]
		r0 := s0[so : so+cols]
		r1 := s1[so : so+cols]
		r2 := s2[so : so+cols]
		r3 := s3[so : so+cols]
		r4 := s4[so : so+cols]
		r5 := s5[so : so+cols]
		r6 := s6[so : so+cols]
		r7 := s7[so : so+cols]
		for c := range drow {
			drow[c] += w0*r0[c] + w1*r1[c] + w2*r2[c] + w3*r3[c] +
				w4*r4[c] + w5*r5[c] + w6*r6[c] + w7*r7[c]
		}
	}
}

// initGeneric and reluGeneric are the epilogue twins: the drivers' loops as
// they were before the epilogue had a vector form, so they define its
// semantics — among them which NaN an add returns and what max does to −0
// and to a NaN's sign.
func initGeneric(dst, src []float32, b float32) {
	if src == nil {
		for i := range dst {
			dst[i] = b
		}
		return
	}
	for i, x := range src[:len(dst)] {
		dst[i] = x + b
	}
}

func reluGeneric(dst []float32) {
	for i, x := range dst {
		dst[i] = max(x, 0)
	}
}

// WidenQ8 converts int8 quantization levels to scaled float32 weights — how
// the PackedQ8 stream reaches the tile kernels: the drivers widen a kernel
// pair's eight levels (or an odd kernel's four) into scratch ahead of the
// Tile8/Tile4 call. Eight scalar converts ahead of a sweep of hundreds of
// FMAs measure the same as widening in-register did, so the tiles have no
// int8 form; the run kernels, whose sweep per kernel is a few FMAs, do.
func WidenQ8(q []int8, scale float32, w []float32) {
	w = w[:len(q)]
	for i, lv := range q {
		w[i] = scale * float32(lv)
	}
}
