package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// These tests pin the Sketch's headline contract — every quantile
// estimate within relative error alpha of the exact nearest-rank
// sample quantile — against distributions chosen to stress the
// log-bucket scheme: wide dynamic range, heavy tails, bucket-boundary
// values, huge bimodal gaps. koalaload's p99 latency numbers (and the
// benchjson gate on them) are only as trustworthy as this bound.

// exactQuantile is the nearest-rank sample quantile the sketch
// documents itself against: the smallest sample whose rank reaches
// ceil(q*n).
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// checkBounds asserts the relative-error guarantee for a spread of
// quantiles including the extremes and koalaload's p50/p95/p99.
func checkBounds(t *testing.T, name string, s *Sketch, values []float64, alpha float64) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1} {
		exact := exactQuantile(sorted, q)
		got := s.Quantile(q)
		if exact <= minTrackable {
			// Zero-bucket samples have no meaningful relative error; the
			// sketch must answer 0 for them.
			if got != 0 {
				t.Errorf("%s: q=%g exact %g (zero bucket), sketch %g, want 0", name, q, exact, got)
			}
			continue
		}
		relErr := math.Abs(got-exact) / exact
		// The midpoint estimate carries float rounding on top of the
		// analytic alpha bound; allow a hair of slack.
		if relErr > alpha*(1+1e-9) {
			t.Errorf("%s: q=%g exact=%g sketch=%g rel err %.6f > alpha %g",
				name, q, exact, got, relErr, alpha)
		}
	}
}

// adversarialDistributions builds the test corpus. Deterministic: the
// PRNG is seeded per distribution.
func adversarialDistributions() map[string][]float64 {
	dists := make(map[string][]float64)

	// Log-uniform over 15 decades: every sample in a different region
	// of the bucket space; exercises bucket spread and the cumulative
	// walk.
	rng := rand.New(rand.NewSource(1))
	wide := make([]float64, 5000)
	for i := range wide {
		wide[i] = math.Pow(10, -6+15*rng.Float64())
	}
	dists["log-uniform-15-decades"] = wide

	// Pareto tail (alpha=1.1, barely integrable): the p99/p999 live
	// orders of magnitude above the median — the shape of latency under
	// contention collapse.
	rng = rand.New(rand.NewSource(2))
	pareto := make([]float64, 5000)
	for i := range pareto {
		pareto[i] = math.Pow(1-rng.Float64(), -1/1.1)
	}
	dists["pareto-heavy-tail"] = pareto

	// Bimodal with an 8-decade gap: cache hits vs timeouts. Quantiles
	// right at the mode boundary are where rank bookkeeping breaks.
	bimodal := make([]float64, 0, 1000)
	for i := 0; i < 900; i++ {
		bimodal = append(bimodal, 1.0+float64(i)*1e-4)
	}
	for i := 0; i < 100; i++ {
		bimodal = append(bimodal, 1e8+float64(i))
	}
	dists["bimodal-8-decade-gap"] = bimodal

	// Exact bucket boundaries gamma^k: ceil(log_gamma(x)) is most
	// fragile when log_gamma(x) is an integer (float noise can push a
	// value into the neighbor bucket, which must still satisfy the
	// bound).
	gamma := (1 + DefaultSketchAccuracy) / (1 - DefaultSketchAccuracy)
	boundaries := make([]float64, 0, 1200)
	for k := -300; k < 900; k++ {
		boundaries = append(boundaries, math.Pow(gamma, float64(k)))
	}
	dists["bucket-boundaries"] = boundaries

	// All-equal samples: every quantile is the same value; the estimate
	// must still be within alpha of it (not exactly equal — it is a
	// bucket midpoint).
	constant := make([]float64, 500)
	for i := range constant {
		constant[i] = 137.5
	}
	dists["constant"] = constant

	// Tiny magnitudes hugging the zero-bucket threshold, mixed with
	// zeros: exercises the zeros/counts split.
	rng = rand.New(rand.NewSource(3))
	tiny := make([]float64, 2000)
	for i := range tiny {
		if i%5 == 0 {
			tiny[i] = 0
		} else {
			tiny[i] = minTrackable * math.Pow(10, 6*rng.Float64())
		}
	}
	dists["near-zero-and-zeros"] = tiny

	return dists
}

func TestSketchQuantileErrorBounds(t *testing.T) {
	for _, alpha := range []float64{DefaultSketchAccuracy, 0.05} {
		for name, values := range adversarialDistributions() {
			s := NewSketch(alpha)
			for _, v := range values {
				s.Add(v)
			}
			checkBounds(t, fmt.Sprintf("alpha=%g/%s", alpha, name), s, values, alpha)
		}
	}
}

// TestSketchMergePreservesErrorBounds pins what koalaload relies on
// directly: per-client sketches merged into one fleet sketch answer
// quantiles with the same guarantee as a single sketch fed everything
// — and identically to it, since merging only adds bucket counts.
func TestSketchMergePreservesErrorBounds(t *testing.T) {
	for name, values := range adversarialDistributions() {
		single := NewSketch(DefaultSketchAccuracy)
		const shards = 7
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = NewSketch(DefaultSketchAccuracy)
		}
		for i, v := range values {
			single.Add(v)
			parts[i%shards].Add(v)
		}
		merged := NewSketch(DefaultSketchAccuracy)
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.n != int64(len(values)) {
			t.Fatalf("%s: merged N = %d, want %d", name, merged.n, len(values))
		}
		checkBounds(t, "merged/"+name, merged, values, DefaultSketchAccuracy)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := merged.Quantile(q), single.Quantile(q); got != want {
				t.Errorf("%s: q=%g merged %g != single %g (merge must be exact on buckets)",
					name, q, got, want)
			}
		}
	}
}

// TestSketchQuantileMonotone: estimates must be non-decreasing in q on
// every adversarial distribution — a reporting invariant (p99 >= p50)
// koalaload's report and the benchjson metrics both assume.
func TestSketchQuantileMonotone(t *testing.T) {
	for name, values := range adversarialDistributions() {
		s := NewSketch(DefaultSketchAccuracy)
		for _, v := range values {
			s.Add(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.005 {
			got := s.Quantile(q)
			if got < prev {
				t.Fatalf("%s: Quantile(%g) = %g < Quantile(%g) = %g", name, q, got, q-0.005, prev)
			}
			prev = got
		}
	}
}
