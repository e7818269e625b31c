// Package simd provides the vectorized microkernels the packed FKW backend's
// drivers (codegen exec_packed) and the 1×1 driver (codegen
// conv1x1) dispatch into. There are three contracts.
//
// The tile kernels compute, over a rows×cols tile,
//
//	dst[r·dstStride + c] += Σ_t w[t] · src[t][r·srcStride + c]
//
// for 4 or 8 taps t — the 4-entry pattern run of one kernel, or a
// register-blocked pair of kernels. The tap pointers already bake in each
// tap's (Δrow, Δcol) displacement, so one call sweeps a whole spatial tile
// with the tap weights pinned in vector registers: the register-level load
// redundancy elimination of paper §5.4, realized as machine FMAs instead of
// IR bookkeeping. They suit wide planes, where a row is at least one vector.
//
// The run kernels pin the other operand: over n contiguous output pixels,
//
//	dst[i] += Σ_k Σ_{t<T} w[k·T+t] · base[ch[k]·chStride + tapOff[t] + i]
//
// for a whole kernel list k — one FKW pattern run (T = 4, Run4/Run4Q8: ch
// is the run's slice of FKW.Index, w its slice of FKW.Weights, tapOff the
// run's four lowered taps) or one CSR row of a 1×1 conv (T = 1, Run1). The
// output stays in vector registers while the list streams past, RunBlock
// pixels at a time, and is loaded and stored once per call instead of once
// per kernel pair. Every pixel keeps four partial sums — one per tap for
// T = 4, one per k mod 4 for T = 1 (a ragged tail of k joins partial 0) —
// each accumulated in ascending k and combined as (a0+a1)+(a2+a3) before
// the one add into dst; Run4Q8 accumulates the raw int8 levels and scales
// that sum once. Four independent chains are what keep a two-vector block
// from waiting on FMA latency. They suit small planes (codegen: at most
// MaxRunPlane pixels), where a tile row is narrower than a vector and the
// tile kernels run nothing but their scalar tail.
//
// The epilogue kernels bracket every conv output span the drivers write:
//
//	Init:  dst[i] = b              (src == nil)
//	       dst[i] = src[i] + b     (src holds the residual shortcut)
//	ReLU:  dst[i] = max(dst[i], 0)
//
// over i < len(dst), with Go's semantics bit for bit: the add rounds once,
// a NaN operand's payload survives (src's when both are NaN), and ReLU maps
// −0 to +0 and a NaN to the same NaN with its sign bit cleared — what the
// builtin max compiles to.
//
// Two implementation sets exist: AVX2+FMA (amd64) and a pure-Go generic
// that every other build — and the noasm build tag — gets. internal/cpu
// probes the running core once; Active returns the selected set. The
// contract across implementations is exact: identical iteration domain, the
// accumulation order stated above, and in-place updates of dst only. Strides
// are in float32 elements, may exceed cols (tiles are strided views over
// larger planes), and the column step is always 1 — the drivers lower strided
// convolutions to it (3×3 by splitting the input by row phase and column tap,
// 1×1 by subsampling it), and a 1×1 conv's eight kept channels are the eight
// taps of a rows = 1 tile. No kernel checks a bound: the drivers prove, once
// per plan or once per call, that every address a kernel forms lies inside
// the buffers they hand it.
package simd

import (
	"sync"
	"sync/atomic"
)

// Tile4Func accumulates a 4-tap tile: dst[r,c] += Σ w[t]·src[t][r,c].
type Tile4Func func(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int)

// Tile8Func accumulates an 8-tap tile (a register-blocked kernel pair).
type Tile8Func func(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int)

// Run4Func accumulates one 4-tap pattern run into n resident output pixels:
// dst[i] += Σ_k Σ_t w[4k+t]·base[ch[k]·chStride + tapOff[t] + i], k over ch.
// w holds 4·len(ch) weights.
type Run4Func func(dst *float32, n int, base *float32, chStride int, ch []uint16, w []float32, tapOff *[4]int)

// Run4Q8Func is Run4 over the PackedQ8 stream: q holds 4·len(ch) int8
// levels, widened in-register as they are consumed, and the filter's scale
// multiplies the finished sum once.
type Run4Q8Func func(dst *float32, n int, base *float32, chStride int, ch []uint16, q []int8, scale float32, tapOff *[4]int)

// Run1Func accumulates one CSR row of a 1×1 conv into n resident output
// pixels: dst[i] += Σ_k w[k]·base[ch[k]·chStride + i]. w holds len(ch)
// weights.
type Run1Func func(dst *float32, n int, base *float32, chStride int, ch []int32, w []float32)

// InitFunc writes an output span's initial value: dst[i] = b, or
// dst[i] = src[i] + b when src is non-nil (it then holds at least len(dst)
// elements).
type InitFunc func(dst, src []float32, b float32)

// ReLUFunc clamps an output span in place: dst[i] = max(dst[i], 0).
type ReLUFunc func(dst []float32)

// RunBlock is how many output pixels a run kernel keeps resident at a time:
// two 8-lane vectors × four partial sums fill eight of AVX2's sixteen vector
// registers, the other eight hold the splatted weights and lane selectors.
// Longer outputs walk the kernel list once per block.
const RunBlock = 16

// MaxRunPlane is the largest output plane (pixels) the drivers hand to the
// run kernels: four blocks. At 64 pixels a row is at most one vector wide, so
// a tile call is all per-row overhead; past it rows fill vectors and the tile
// kernels' per-row sweep wins back what the repeated list walks cost.
const MaxRunPlane = 4 * RunBlock

// Kernels is one complete implementation set. Plans capture a set at compile
// time, so a running plan's kernels never change under it.
type Kernels struct {
	Name   string // "avx2" or "generic"
	Tile4  Tile4Func
	Tile8  Tile8Func
	Run4   Run4Func
	Run4Q8 Run4Q8Func
	Run1   Run1Func
	Init   InitFunc
	ReLU   ReLUFunc
}

var (
	genericSet = Kernels{
		Name:  "generic",
		Tile4: fmaTile4Generic, Tile8: fmaTile8Generic,
		Run4: runTaps4Generic, Run4Q8: runTaps4Q8Generic, Run1: runRow1Generic,
		Init: initGeneric, ReLU: reluGeneric,
	}
	// bestSet is filled by the per-arch init when the probe accepts the core;
	// otherwise it stays generic.
	bestSet = genericSet

	forcedGeneric atomic.Bool
	installMu     sync.Mutex
)

// Generic returns the pure-Go implementation set — the noasm fallback, the
// scalar-tail helper, and the reference the differential suite pins the
// vector kernels against.
func Generic() Kernels { return genericSet }

// Active returns the implementation set new plans should capture: the best
// the probe accepted, or the generic set while ForceGeneric holds.
func Active() Kernels {
	if forcedGeneric.Load() {
		return genericSet
	}
	return bestSet
}

// ForceGeneric makes Active return the pure-Go set (on=true) or restores the
// probed best set (on=false). It only affects plans compiled afterwards —
// compiled plans keep the kernels they captured — and exists for tests and
// benchmarks that need a scalar baseline on vector hardware.
func ForceGeneric(on bool) {
	installMu.Lock()
	defer installMu.Unlock()
	forcedGeneric.Store(on)
}

// Arch names the implementation Active currently selects.
func Arch() string { return Active().Name }
