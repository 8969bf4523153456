package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-quantile of sorted (ascending) by the
// nearest-rank method: the smallest sample x such that at least p·n of
// the n samples are <= x. p is rounded to a whole per-mille so that
// float error in p·n (0.99·100 = 99.000…01) cannot bump the rank. It
// returns 0 for no samples.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pm := int(math.Round(p * 1000))
	rank := (pm*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quantiles sorts a copy of xs and returns its nearest-rank quantiles.
func quantiles(xs []float64, ps ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = nearestRank(s, p)
	}
	return out
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
