package simd

// The run kernels as a composition over a build's tile kernels: one row of n
// pixels, kernel pairs through Tile8, a trailing odd kernel through Tile4 —
// dst is loaded and stored once per tile call, which is what the native run
// kernels exist to avoid. These are the NEON set's entries: arm64 has tile
// assembly only, and no run-kernel assembly ships there until it can be
// executed against the generic twins. composeTile8 and composeTile4 are the
// build's tiles as plain functions (see the per-build files), so the pointer
// and weight arrays below stay on the stack: a call through a Kernels func
// value would make them escape.

func runTaps4Tiles(dst *float32, n int, base *float32, chStride int, ch []uint16, w []float32, tapOff *[4]int) {
	if n <= 0 {
		return
	}
	var s8 [8]*float32
	k := 0
	for ; k+2 <= len(ch); k += 2 {
		a, b := int(ch[k])*chStride, int(ch[k+1])*chStride
		for t, off := range tapOff {
			s8[t], s8[4+t] = runAt(base, a+off), runAt(base, b+off)
		}
		composeTile8(dst, n, &s8, n, (*[8]float32)(w[4*k:]), n, 1)
	}
	if k < len(ch) {
		var s4 [4]*float32
		for t, off := range tapOff {
			s4[t] = runAt(base, int(ch[k])*chStride+off)
		}
		composeTile4(dst, n, &s4, n, (*[4]float32)(w[4*k:]), n, 1)
	}
}

func runTaps4Q8Tiles(dst *float32, n int, base *float32, chStride int, ch []uint16, q []int8, scale float32, tapOff *[4]int) {
	if n <= 0 {
		return
	}
	var (
		s8 [8]*float32
		w8 [8]float32
	)
	k := 0
	for ; k+2 <= len(ch); k += 2 {
		a, b := int(ch[k])*chStride, int(ch[k+1])*chStride
		for t, off := range tapOff {
			s8[t], s8[4+t] = runAt(base, a+off), runAt(base, b+off)
		}
		WidenQ8(q[4*k:4*k+8], scale, w8[:])
		composeTile8(dst, n, &s8, n, &w8, n, 1)
	}
	if k < len(ch) {
		var (
			s4 [4]*float32
			w4 [4]float32
		)
		for t, off := range tapOff {
			s4[t] = runAt(base, int(ch[k])*chStride+off)
		}
		WidenQ8(q[4*k:4*k+4], scale, w4[:])
		composeTile4(dst, n, &s4, n, &w4, n, 1)
	}
}

// runRow1Tiles: eight kept channels are the eight taps of a Tile8 call; the
// ragged tail takes one more Tile8 (5–7 channels) or a Tile4 (1–4) with zero
// weights on the unused taps and their pointers repeating the last channel.
func runRow1Tiles(dst *float32, n int, base *float32, chStride int, ch []int32, w []float32) {
	if n <= 0 {
		return
	}
	var s8 [8]*float32
	k := 0
	for ; k+8 <= len(ch); k += 8 {
		for t, c := range ch[k : k+8] {
			s8[t] = runAt(base, int(c)*chStride)
		}
		composeTile8(dst, n, &s8, n, (*[8]float32)(w[k:]), n, 1)
	}
	last := len(ch) - 1
	if rem := len(ch) - k; rem > 4 {
		var w8 [8]float32
		copy(w8[:], w[k:len(ch)])
		for t := range s8 {
			s8[t] = runAt(base, int(ch[min(k+t, last)])*chStride)
		}
		composeTile8(dst, n, &s8, n, &w8, n, 1)
	} else if rem > 0 {
		var (
			s4 [4]*float32
			w4 [4]float32
		)
		copy(w4[:], w[k:len(ch)])
		for t := range s4 {
			s4[t] = runAt(base, int(ch[min(k+t, last)])*chStride)
		}
		composeTile4(dst, n, &s4, n, &w4, n, 1)
	}
}
