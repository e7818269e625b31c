package tuner

import "patdnn/internal/compiler/lr"

// Sizing for the packed FKW-direct backend (codegen.Packed). The packed
// kernels replay a filter's weight stream once per spatial output tile, so
// the tile wants to be as tall as possible while the tile's working set —
// the output tile rows plus the input rows a 3×3 pattern touches — stays
// resident in a mobile-class L1 data cache.
const packedL1Bytes = 32 * 1024

// PackedTile returns the output-row tile height for an outH×outW output map
// whose padded input rows are paddedW wide, at the given conv stride. It
// picks the largest candidate from the standard tuning space whose working
// set (tile output rows + the tile's input rows + one filter's weight
// stream) fits packedL1Bytes; the whole map in one tile when it fits.
// bytesPerWeight sizes the weight stream: 4 for the FP32 packed level, 1 for
// PackedQ8's int8 stream — the smaller stream leaves room for taller tiles.
func PackedTile(outH, outW, paddedW, weightsPerFilter, stride, bytesPerWeight int) int {
	if stride < 1 {
		stride = 1
	}
	if bytesPerWeight < 1 {
		bytesPerWeight = 4
	}
	fits := func(rows int) bool {
		// rows output rows + the input rows a 3-tap-high pattern touches
		// across the tile ((rows-1)*stride + 3), 4 bytes per element, plus
		// the filter's packed weights.
		inRows := (rows-1)*stride + 3
		work := 4 * (rows*outW + inRows*paddedW)
		return work+bytesPerWeight*weightsPerFilter <= packedL1Bytes
	}
	if fits(outH) {
		return outH
	}
	best := 1
	for _, rows := range DefaultSpace().TileOH {
		if rows <= outH && fits(rows) && rows > best {
			best = rows
		}
	}
	return best
}

// Packed driver knob defaults: the register-tiled driver reads three genes —
// Tile[1] (output rows per microkernel sweep), Unroll[0] (filters sharing an
// input tile), and Unroll[2] (output columns per microkernel call).
const (
	// packedDefaultGroup is the heuristic filter-group size: enough filters
	// to amortize each input-tile load several times without the group's
	// output tiles crowding the input rows out of L1.
	packedDefaultGroup = 4
	// packedLanes is the vector width the cost model assumes when scoring a
	// pixel-block width: blocks narrower than a vector register waste lanes.
	packedLanes = 8
)

// PackedTuning returns the tuning a packed plan should be compiled with: the
// default configuration with the spatial tile swapped for the PackedTile
// choice, a packedDefaultGroup filter group, and whole-row pixel blocks (one
// microkernel call per tile row span — column chunking only pays off when a
// row is too wide for L1, which the GA discovers, not the heuristic). The
// remaining genes do not apply to the packed kernels (the run structure is
// fixed by the FKW layout) and are left at defaults.
func PackedTuning(outH, outW, paddedW, weightsPerFilter, stride, bytesPerWeight int) lr.Tuning {
	t := lr.DefaultTuning()
	t.Tile[1] = PackedTile(outH, outW, paddedW, weightsPerFilter, stride, bytesPerWeight)
	t.Unroll[0] = packedDefaultGroup
	t.Unroll[2] = outW
	return t
}

// PackedSpace returns the search space for the packed FKW-direct backend.
// Three genes are free — the output-row tile, the filter-group size
// (UnrollOC), and the pixel-block width (UnrollOW) — matching the three
// blocking knobs of the register-tiled driver. The FKW run structure fixes
// the rest, and the serving pool owns the thread count, so the remaining
// genes stay pinned at their default candidate. Pixel-block candidates top
// out at 256: the driver clamps Unroll[2] to the output width, so 256 means
// "whole row" for every map in the paper's networks.
func PackedSpace() Space {
	d := lr.DefaultTuning()
	return Space{
		TileOC:   []int{d.Tile[0]},
		TileOH:   DefaultSpace().TileOH,
		TileIC:   []int{d.Tile[2]},
		UnrollOC: []int{1, 2, 4, 8},
		UnrollOH: []int{d.Unroll[1]},
		UnrollOW: []int{16, 32, 64, 256},
		Permute:  []lr.Permutation{d.Permute},
		Threads:  []int{d.Threads},
	}
}

// PackedCost is the analytic cost model a compile-time search over
// PackedSpace minimizes, covering the register-tiled driver's three blocking
// knobs:
//
//   - Tile[1] (output-row tile): one weight-stream replay per tile, and the
//     tile's rows bound the working set.
//   - Unroll[0] (filter group): input-tile traffic divides by the group size
//     (the rows are loaded once per group, not per filter), but the group's
//     output tiles multiply the working set.
//   - Unroll[2] (pixel block): each microkernel call re-broadcasts the tap
//     weights into vector registers and recomputes the source pointers, so
//     narrow blocks pay call overhead per chunk; blocks narrower than a
//     vector register additionally waste lanes on the ragged edge.
//
// Working sets that spill the L1 budget are scaled up sharply, so no
// spilling configuration ever beats a fitting one — what makes the GA's
// winner safe to persist.
func PackedCost(outH, outW, paddedW, weightsPerFilter, stride, bytesPerWeight int, t lr.Tuning) float64 {
	if stride < 1 {
		stride = 1
	}
	if bytesPerWeight < 1 {
		bytesPerWeight = 4
	}
	rows := t.Tile[1]
	if rows < 1 || rows > outH {
		rows = outH
	}
	fg := t.Unroll[0]
	if fg < 1 {
		fg = 1
	}
	pbw := t.Unroll[2]
	if pbw < 1 || pbw > outW {
		pbw = outW
	}
	tiles := (outH + rows - 1) / rows
	inRows := (rows-1)*stride + 3
	// The group's working set: fg output tiles + the shared input rows + fg
	// weight streams.
	work := 4*(fg*rows*outW+inRows*paddedW) + fg*bytesPerWeight*weightsPerFilter
	wpf := max(weightsPerFilter, 1)
	// MACs over the output map, discounted for vector lanes the pixel block
	// leaves idle (the ragged-edge columns run scalar).
	laneEff := 1.0
	if pbw < packedLanes {
		laneEff = float64(pbw) / float64(packedLanes)
	}
	cost := float64(outH*outW*wpf) / laneEff
	// One weight-stream replay per tile.
	cost += float64(tiles * weightsPerFilter)
	// Input rows streamed once per filter group per tile.
	cost += float64(tiles*inRows*paddedW) / float64(fg)
	// Microkernel call overhead: one weight-broadcast + pointer setup per
	// column chunk per kernel pair per tile (each call costs on the order of
	// a dozen scalar ops; 16 keeps the term comparable to the MAC work it
	// displaces on narrow chunks).
	chunks := (outW + pbw - 1) / pbw
	cost += 16 * float64(tiles*chunks*max(wpf/8, 1))
	if work > packedL1Bytes {
		// The group thrashes L1: at least double the cost (so no spilling
		// configuration ever beats a fitting one) and grow with the spill.
		cost *= 2 + float64(work-packedL1Bytes)/float64(packedL1Bytes)
	}
	return cost
}
