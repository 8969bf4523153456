package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over a sample. The
// paper reports most of its results as "cumulative number of jobs (%)"
// versus a metric; CDF.Points renders exactly those curves.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input is copied,
// so the caller keeps xs and may change it afterwards.
func NewCDF(xs []float64) *CDF {
	return NewCDFInPlace(append([]float64(nil), xs...))
}

// NewCDFInPlace builds an empirical CDF that takes xs over: it sorts xs in
// place and keeps it, so the caller must neither read nor write xs
// afterwards. It spares NewCDF's copy when the sample was built for the CDF.
func NewCDFInPlace(xs []float64) *CDF {
	sort.Float64s(xs)
	return &CDF{sorted: xs}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

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

// Quantile returns the smallest sample value v such that At(v) ≥ q, for q in
// (0,1]. Quantile(0) returns the minimum. An empty CDF returns 0.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q > 1 {
		q = 1
	}
	idx := int(q*float64(len(c.sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Point is one (x, cumulative-percent) sample of a CDF curve.
type Point struct {
	X       float64
	Percent float64
}

// Points returns the full step curve of the CDF: one point per distinct
// sample value, with Percent the cumulative percentage of samples ≤ X.
func (c *CDF) Points() []Point {
	var pts []Point
	n := float64(len(c.sorted))
	for i := 0; i < len(c.sorted); {
		j := i
		for j < len(c.sorted) && c.sorted[j] == c.sorted[i] {
			j++
		}
		pts = append(pts, Point{X: c.sorted[i], Percent: float64(j) / n * 100})
		i = j
	}
	return pts
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

// Render formats the CDF sampled at xs as an aligned two-column table.
func (c *CDF) Render(label string, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s\n", label, "cum.%")
	for _, p := range c.SampleAt(xs) {
		fmt.Fprintf(&b, "%-18.6g %8.1f\n", p.X, p.Percent)
	}
	return b.String()
}
