//go:build arm64 && !noasm

package simd

import "patdnn/internal/cpu"

// NEON tile kernels (fma_arm64.s).

//go:noescape
func fmaTile4NEON(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int)

//go:noescape
func fmaTile8NEON(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int)

// composeTile8/composeTile4 are this build's tiles as plain functions, for
// tiles.go. There is no NEON run-kernel assembly: the set's run kernels are
// that file's composition over the two kernels above — what arm64 ran before
// the run contract existed, bit for bit.
func composeTile8(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int) {
	fmaTile8NEON(dst, dstStride, src, srcStride, w, cols, rows)
}

func composeTile4(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int) {
	fmaTile4NEON(dst, dstStride, src, srcStride, w, cols, rows)
}

func init() {
	if cpu.HasNEON {
		bestSet = Kernels{
			Name: "neon", Lanes: 4,
			Tile4: fmaTile4NEON, Tile8: fmaTile8NEON,
			Run4: runTaps4Tiles, Run4Q8: runTaps4Q8Tiles, Run1: runRow1Tiles,
		}
	}
}
