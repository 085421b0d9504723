package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile for it to count as supported by the sample.
const minBeyond = 10

// pct is one percentile read off a sample: its value, the sample size, how
// many samples lie strictly beyond it in rank, and whether that is at least
// minBeyond.
type pct struct {
	Value     float64 `json:"value"`
	N         int     `json:"n"`
	Beyond    int     `json:"beyond"`
	Supported bool    `json:"supported"`
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of xs.
// The rank is ceil(q/100 * n), so the samples beyond it are n minus that
// rank: p99 of 1000 samples has 10 beyond, p99 of 999 has 9. An empty
// sample reads as zero with nothing beyond.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{Value: s[rank-1], N: n, Beyond: n - rank, Supported: n-rank >= minBeyond}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); zero for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
