//go:build noasm || !(amd64 || arm64)

package simd

// No hand-written kernels in this build: bestSet keeps its generic zero
// state, so Active() == Generic() — the noasm fallback contract.

// composeTile8/composeTile4 are this build's tiles as plain functions, for
// tiles.go — the generic ones, so here its compositions are only the tests'
// second opinion on the generic kernels.
func composeTile8(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int) {
	fmaTile8Generic(dst, dstStride, src, srcStride, w, cols, rows)
}

func composeTile4(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int) {
	fmaTile4Generic(dst, dstStride, src, srcStride, w, cols, rows)
}
