package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-th percentile (0 < q ≤ 100) of sorted by
// the nearest-rank rule: the smallest sample with at least q% of the
// samples at or below it. sorted must be ascending and non-empty.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile in tailPercentiles that
// still has at least ten samples beyond it among n, so a tail figure is
// never one or two stragglers. It returns 0 when even the median has
// fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= 10 {
			return q
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the midpoint of xs (mean of the two middle samples for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
