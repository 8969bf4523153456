package stats

import "sort"

// CDF is an empirical cumulative distribution function over a sample. The
// paper reports most of its results as "cumulative number of jobs (%)"
// versus a metric; CDF.SampleAt renders exactly those curves.
type CDF struct {
	sorted []float64
}

// NewCDFInPlace builds an empirical CDF that takes xs over: it sorts xs in
// place and keeps it, so the caller must neither read nor write xs
// afterwards.
func NewCDFInPlace(xs []float64) *CDF {
	sort.Float64s(xs)
	return &CDF{sorted: xs}
}

// At returns the fraction of samples ≤ x, in [0,1]. An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(c.sorted, x)
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Percent returns the percentage of samples ≤ x, in [0,100].
func (c *CDF) Percent(x float64) float64 { return c.At(x) * 100 }

// Point is one (x, cumulative-percent) sample of a CDF curve.
type Point struct {
	X       float64
	Percent float64
}

// SampleAt evaluates the CDF (as percent) at each x in xs — convenient for
// comparing several CDFs on a common axis, as the paper's figures do.
func (c *CDF) SampleAt(xs []float64) []Point {
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i] = Point{X: x, Percent: c.Percent(x)}
	}
	return pts
}
