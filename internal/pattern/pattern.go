// Package pattern implements PatDNN's kernel patterns: fixed shapes of
// retained weights inside a convolution kernel. For the common 3×3 kernel a
// 4-entry pattern keeps 4 of the 9 weights; the paper's "natural patterns"
// always retain the central weight, giving C(8,3) = 56 candidates. The
// pattern-set designer counts natural patterns over a pre-trained model and
// keeps the Top-k most frequent ones (Section 4.1 of the paper).
package pattern

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Pattern is a set of retained positions inside a K×K kernel, encoded as a
// row-major bitmask (bit i set = position i kept). The zero Pattern keeps
// nothing and is used to denote a kernel removed by connectivity pruning.
type Pattern struct {
	Mask uint16
	K    int
}

// Empty is the pattern of a fully pruned (removed) kernel.
var Empty = Pattern{Mask: 0, K: 3}

// New builds a pattern over a K×K kernel keeping the given row-major
// positions. It panics on out-of-range or duplicate positions.
func New(k int, positions ...int) Pattern {
	p := Pattern{K: k}
	for _, pos := range positions {
		if pos < 0 || pos >= k*k {
			panic(fmt.Sprintf("pattern: position %d out of range for %dx%d kernel", pos, k, k))
		}
		bit := uint16(1) << uint(pos)
		if p.Mask&bit != 0 {
			panic(fmt.Sprintf("pattern: duplicate position %d", pos))
		}
		p.Mask |= bit
	}
	return p
}

// Entries returns the number of retained weights.
func (p Pattern) Entries() int {
	n := 0
	for m := p.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Has reports whether row-major position pos is retained.
func (p Pattern) Has(pos int) bool { return p.Mask&(1<<uint(pos)) != 0 }

// Indices returns the retained row-major positions in ascending order.
func (p Pattern) Indices() []int {
	idx := make([]int, 0, p.Entries())
	for pos := 0; pos < p.K*p.K; pos++ {
		if p.Has(pos) {
			idx = append(idx, pos)
		}
	}
	return idx
}

// IsEmpty reports whether the pattern retains no weights.
func (p Pattern) IsEmpty() bool { return p.Mask == 0 }

// Rotate180 returns the pattern rotated by 180° (row-major position pos maps
// to K*K-1-pos). A transposed convolution over a stride-dilated input is an
// ordinary convolution with the kernel flipped both ways, so the equivalent
// conv's kernels carry the rotated patterns; rotation preserves the entry
// count and, for odd K, the center.
func (p Pattern) Rotate180() Pattern {
	out := Pattern{K: p.K}
	n := p.K * p.K
	for pos := 0; pos < n; pos++ {
		if p.Has(pos) {
			out.Mask |= uint16(1) << uint(n-1-pos)
		}
	}
	return out
}

// HasCenter reports whether the central weight is retained (only meaningful
// for odd K).
func (p Pattern) HasCenter() bool {
	c := (p.K*p.K - 1) / 2
	return p.Has(c)
}

// String renders the pattern as a K×K grid, e.g. ".x./xxx/..." for a cross.
func (p Pattern) String() string {
	var b strings.Builder
	for r := 0; r < p.K; r++ {
		if r > 0 {
			b.WriteByte('/')
		}
		for c := 0; c < p.K; c++ {
			if p.Has(r*p.K + c) {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
		}
	}
	return b.String()
}

// Apply zeroes the pruned positions of a flat K*K kernel slice in place.
func (p Pattern) Apply(kernel []float32) {
	if len(kernel) != p.K*p.K {
		panic(fmt.Sprintf("pattern: kernel len %d does not match %dx%d", len(kernel), p.K, p.K))
	}
	for pos := range kernel {
		if !p.Has(pos) {
			kernel[pos] = 0
		}
	}
}

// RetainedNorm returns the L2 norm of the kernel weights the pattern keeps.
// The ADMM projection assigns each kernel the pattern maximizing this value,
// which is equivalent to minimizing the Euclidean pruning distortion.
func (p Pattern) RetainedNorm(kernel []float32) float64 {
	// Lowest set bit first: the ascending-position summation order Indices
	// yields, without its slice (this runs per kernel × pattern).
	var s float64
	for m := p.Mask; m != 0; m &= m - 1 {
		v := float64(kernel[bits.TrailingZeros16(m)])
		s += v * v
	}
	return math.Sqrt(s)
}

// AllNatural returns all C(8,3)=56 natural 4-entry patterns for a 3×3
// kernel: the center plus 3 of the remaining 8 positions, in deterministic
// (ascending mask) order.
func AllNatural() []Pattern {
	const k = 3
	const center = 4
	others := []int{0, 1, 2, 3, 5, 6, 7, 8}
	var out []Pattern
	for i := 0; i < len(others); i++ {
		for j := i + 1; j < len(others); j++ {
			for l := j + 1; l < len(others); l++ {
				out = append(out, New(k, center, others[i], others[j], others[l]))
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Mask < out[b].Mask })
	return out
}

// Natural extracts a kernel's natural pattern: the 4 largest-magnitude
// weights, always including the center (paper Section 4.1). kernel must be a
// flat 3×3 slice.
func Natural(kernel []float32) Pattern {
	const k, center = 3, 4
	type wpos struct {
		pos int
		mag float64
	}
	ws := make([]wpos, 0, 8)
	for pos, v := range kernel {
		if pos == center {
			continue
		}
		ws = append(ws, wpos{pos, math.Abs(float64(v))})
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].mag != ws[b].mag {
			return ws[a].mag > ws[b].mag
		}
		return ws[a].pos < ws[b].pos // deterministic tie-break
	})
	return New(k, center, ws[0].pos, ws[1].pos, ws[2].pos)
}

// Best returns the pattern in set with the largest retained L2 norm for the
// kernel (ties broken by lower mask for determinism). It panics on an empty
// set.
func Best(kernel []float32, set []Pattern) Pattern {
	if len(set) == 0 {
		panic("pattern: Best on empty set")
	}
	best := set[0]
	bestNorm := best.RetainedNorm(kernel)
	for _, p := range set[1:] {
		n := p.RetainedNorm(kernel)
		if n > bestNorm || (n == bestNorm && p.Mask < best.Mask) {
			best, bestNorm = p, n
		}
	}
	return best
}

// Project zeroes the kernel weights outside the best-fitting pattern of the
// set and returns the chosen pattern. This is the Euclidean projection used
// by ADMM subproblem 2.
func Project(kernel []float32, set []Pattern) Pattern {
	p := Best(kernel, set)
	p.Apply(kernel)
	return p
}
