package simd

import "unsafe"

// The pure-Go run kernels: the noasm/unsupported-CPU fallback and the
// reference the AVX2 run kernels are pinned against. They state the
// accumulation order of the contract — four partial sums per pixel, ascending
// k within each, combined as (a0+a1)+(a2+a3) — and they block by RunBlock like
// the assembly so the partial sums live in four small arrays.
//
// Every source view is an unsafe.Slice of exactly the elements the kernel
// reads, so under checkptr (-race) a driver that hands a kernel a span
// leaving its buffer is caught here, not in the assembly.

// runAt is the address off elements past base.
func runAt(base *float32, off int) *float32 {
	return (*float32)(unsafe.Add(unsafe.Pointer(base), 4*off))
}

// runSpan is the n-element view at element offset off from base.
func runSpan(base *float32, off, n int) []float32 {
	return unsafe.Slice(runAt(base, off), n)
}

// runFlush adds the combined partial sums, times scale, to d.
func runFlush(d []float32, a *[4][RunBlock]float32, scale float32) {
	for i := range d {
		d[i] += scale * ((a[0][i] + a[1][i]) + (a[2][i] + a[3][i]))
	}
}

func runTaps4Generic(dst *float32, n int, base *float32, chStride int, ch []uint16, w []float32, tapOff *[4]int) {
	if n <= 0 || len(ch) == 0 {
		return
	}
	w = w[:4*len(ch)]
	d := unsafe.Slice(dst, n)
	for b := 0; b < n; b += RunBlock {
		m := min(RunBlock, n-b)
		var a [4][RunBlock]float32
		for k, c := range ch {
			off := int(c)*chStride + b
			for t := range a {
				wt, at := w[4*k+t], a[t][:m]
				for i, v := range runSpan(base, off+tapOff[t], m) {
					at[i] += wt * v
				}
			}
		}
		runFlush(d[b:b+m], &a, 1)
	}
}

func runTaps4Q8Generic(dst *float32, n int, base *float32, chStride int, ch []uint16, q []int8, scale float32, tapOff *[4]int) {
	if n <= 0 || len(ch) == 0 {
		return
	}
	q = q[:4*len(ch)]
	d := unsafe.Slice(dst, n)
	for b := 0; b < n; b += RunBlock {
		m := min(RunBlock, n-b)
		var a [4][RunBlock]float32
		for k, c := range ch {
			off := int(c)*chStride + b
			for t := range a {
				wt, at := float32(q[4*k+t]), a[t][:m]
				for i, v := range runSpan(base, off+tapOff[t], m) {
					at[i] += wt * v
				}
			}
		}
		runFlush(d[b:b+m], &a, scale)
	}
}

func runRow1Generic(dst *float32, n int, base *float32, chStride int, ch []int32, w []float32) {
	if n <= 0 || len(ch) == 0 {
		return
	}
	w = w[:len(ch)]
	quads := len(ch) &^ 3
	d := unsafe.Slice(dst, n)
	for b := 0; b < n; b += RunBlock {
		m := min(RunBlock, n-b)
		var a [4][RunBlock]float32
		for k, c := range ch {
			t := 0
			if k < quads {
				t = k & 3
			}
			wk, at := w[k], a[t][:m]
			for i, v := range runSpan(base, int(c)*chStride+b, m) {
				at[i] += wk * v
			}
		}
		runFlush(d[b:b+m], &a, 1)
	}
}
