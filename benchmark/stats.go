package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs by
// exact sort: the smallest value with at least p% of the samples at or below
// it. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs, the mean of the two middle values when
// len(xs) is even, and 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// floorMean is the mean of the fastest share of xs, and of at least
// floorAtLeast values: the run's floor. A neighbour on the machine only ever
// makes a request slower, and while it is there the latencies of a run spread
// from the program's own cost up to twice that with no mode left to find, so
// the median and every slice of the run follow the neighbour; the fastest few
// requests are the ones it missed, and they repeat from run to run. It
// returns 0 for an empty sample.
func floorMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := min(len(s), max(floorAtLeast, int(share*float64(len(s)))))
	sum := 0.0
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is the
// rule the driver applies to ten seeds. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
