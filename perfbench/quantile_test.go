package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteRank is the nearest-rank definition read literally: the smallest
// sample x with #{samples <= x} >= p·n, p taken in whole per-mille.
func bruteRank(xs []float64, p float64) float64 {
	pm := int(math.Round(p * 1000))
	n := len(xs)
	best := math.Inf(1)
	for _, x := range xs {
		le := 0
		for _, y := range xs {
			if y <= x {
				le++
			}
		}
		if le*1000 >= pm*n && x < best {
			best = x
		}
	}
	return best
}

func TestNearestRankMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for n := 1; n <= 300; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			// Few distinct values, so ties are common.
			xs[i] = float64(rng.Intn(40))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range ps {
			if got, want := nearestRank(sorted, p), bruteRank(xs, p); got != want {
				t.Fatalf("n=%d p=%v: nearestRank %v, brute force %v", n, p, got, want)
			}
		}
	}
}

func TestNearestRankEdges(t *testing.T) {
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	// 0.99·100 is 99.000…01 in floating point; the rank must still be 99.
	if got := nearestRank(hundred, 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}
