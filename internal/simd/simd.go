// Package simd provides the vectorized tile-FMA microkernels the packed FKW
// backend's register-blocked drivers (codegen exec_packed / exec_packedq8)
// and the 1×1 driver (codegen conv1x1) dispatch into. Each kernel computes, over a rows×cols tile,
//
//	dst[r·dstStride + c] += Σ_t w[t] · src[t][r·srcStride + c]
//
// for 4 or 8 taps t — the 4-entry pattern run of one kernel, or a
// register-blocked pair of kernels. The tap pointers already bake in each
// tap's (Δrow, Δcol) displacement, so one call sweeps a whole spatial tile
// with the tap weights pinned in vector registers: the register-level load
// redundancy elimination of paper §5.4, realized as machine FMAs instead of
// IR bookkeeping.
//
// Three implementations exist: AVX2+FMA (amd64), NEON (arm64), and a
// pure-Go generic that every other build — and the noasm build tag — gets.
// internal/cpu probes the running core once; Active returns the selected
// set. The contract across implementations is exact: identical iteration
// domain, per-element accumulation of all taps in ascending tap order, and
// in-place updates of dst only. Strides are in float32 elements, may exceed
// cols (tiles are strided views over larger planes), and the column step is
// always 1 — the drivers lower strided convolutions to it (3×3 by splitting
// the input by row phase and column tap, 1×1 by subsampling it), and a 1×1
// conv's eight kept channels are the eight taps of a rows = 1 tile.
package simd

import (
	"sync"
	"sync/atomic"

	"patdnn/internal/cpu"
)

// Tile4Func accumulates a 4-tap tile: dst[r,c] += Σ w[t]·src[t][r,c].
type Tile4Func func(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int)

// Tile8Func accumulates an 8-tap tile (a register-blocked kernel pair).
type Tile8Func func(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int)

// Tile8Q8Func is the widening-multiply variant for the PackedQ8 stream: the
// 8 tap weights arrive as int8 quantization levels and are widened to
// float32 (and multiplied by scale) in the kernel prologue, once per tile,
// before the same 8-tap FMA sweep. Pass scale 1 when the caller defers the
// filter scale to a dequant-fused epilogue.
type Tile8Q8Func func(dst *float32, dstStride int, src *[8]*float32, srcStride int, q *[8]int8, scale float32, cols, rows int)

// Kernels is one complete implementation set. Plans capture a set at compile
// time, so a running plan's kernels never change under it.
type Kernels struct {
	Name    string // "avx2", "neon", or "generic"
	Lanes   int    // vector width in float32 lanes (1 for generic)
	Tile4   Tile4Func
	Tile8   Tile8Func
	Tile8Q8 Tile8Q8Func
}

var (
	genericSet = Kernels{
		Name: "generic", Lanes: 1,
		Tile4: fmaTile4Generic, Tile8: fmaTile8Generic, Tile8Q8: fmaTile8Q8Generic,
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

// CPUArch reports the probe's verdict for this core, independent of
// ForceGeneric — the string tuning-DB keys and /stats carry.
func CPUArch() string { return cpu.Arch() }
