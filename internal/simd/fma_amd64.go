//go:build amd64 && !noasm

package simd

import "patdnn/internal/cpu"

// AVX2+FMA tile kernels (fma_amd64.s). The wrappers are direct asm
// declarations; //go:noescape keeps the caller's stack-allocated pointer and
// weight arrays from escaping, so a microkernel call allocates nothing.

//go:noescape
func fmaTile4AVX2(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int)

//go:noescape
func fmaTile8AVX2(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int)

// AVX2+FMA run kernels (fma_amd64.s), unchecked like the tiles: the slices
// only carry base pointers and the kernel count.

//go:noescape
func runTaps4AVX2(dst *float32, n int, base *float32, chStride int, ch []uint16, w []float32, tapOff *[4]int)

//go:noescape
func runTaps4Q8AVX2(dst *float32, n int, base *float32, chStride int, ch []uint16, q []int8, scale float32, tapOff *[4]int)

//go:noescape
func runRow1AVX2(dst *float32, n int, base *float32, chStride int, ch []int32, w []float32)

// AVX2 epilogue kernels (fma_amd64.s); src's length is not read.

//go:noescape
func initAVX2(dst, src []float32, b float32)

//go:noescape
func reluAVX2(dst []float32)

func init() {
	if cpu.HasAVX2FMA {
		bestSet = Kernels{
			Name:  "avx2",
			Tile4: fmaTile4AVX2, Tile8: fmaTile8AVX2,
			Run4: runTaps4AVX2, Run4Q8: runTaps4Q8AVX2, Run1: runRow1AVX2,
			Init: initAVX2, ReLU: reluAVX2,
		}
	}
}
