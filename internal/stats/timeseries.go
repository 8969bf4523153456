package stats

import (
	"fmt"
	"sort"
)

// TimeSeries is a piecewise-constant (step) time series: the value set at
// time t holds until the next sample. It backs the utilisation curves
// (Figs. 7e, 8e) and the cumulative malleability-operation counts
// (Figs. 7f, 8f).
type TimeSeries struct {
	times  []float64
	values []float64
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Reserve grows the series' capacity to hold at least n samples, sparing
// callers that know their sample count up front the append doublings.
func (ts *TimeSeries) Reserve(n int) {
	if n <= cap(ts.times) {
		return
	}
	times := make([]float64, len(ts.times), n)
	values := make([]float64, len(ts.values), n)
	copy(times, ts.times)
	copy(values, ts.values)
	ts.times, ts.values = times, values
}

// Add appends a sample at time t. Samples must be added in non-decreasing
// time order; a sample at the same instant overwrites the previous value
// (last writer wins, matching events that change state "simultaneously").
func (ts *TimeSeries) Add(t, v float64) {
	if n := len(ts.times); n > 0 {
		if t < ts.times[n-1] {
			panic(fmt.Sprintf("stats: time series sample out of order: %g after %g", t, ts.times[n-1]))
		}
		if t == ts.times[n-1] {
			ts.values[n-1] = v
			return
		}
	}
	ts.times = append(ts.times, t)
	ts.values = append(ts.values, v)
}

// Len returns the number of stored samples.
func (ts *TimeSeries) Len() int { return len(ts.times) }

// At returns the series value at time t (the value of the latest sample with
// time ≤ t), or 0 before the first sample.
func (ts *TimeSeries) At(t float64) float64 {
	idx := sort.SearchFloat64s(ts.times, t)
	// idx is the first index with times[idx] >= t; we want the last <= t.
	if idx < len(ts.times) && ts.times[idx] == t {
		return ts.values[idx]
	}
	if idx == 0 {
		return 0
	}
	return ts.values[idx-1]
}

// Sample evaluates the series on a regular grid [start, end] with the given
// step, returning one Point per grid instant.
func (ts *TimeSeries) Sample(start, end, step float64) []Point {
	if step <= 0 {
		panic("stats: non-positive sampling step")
	}
	var pts []Point
	for t := start; t <= end+1e-9; t += step {
		pts = append(pts, Point{X: t, Percent: ts.At(t)})
	}
	return pts
}

// Integral returns the integral of the step series over [start, end] — used
// to compute time-averaged utilisation.
func (ts *TimeSeries) Integral(start, end float64) float64 {
	if end <= start || len(ts.times) == 0 {
		return 0
	}
	total := 0.0
	// Walk segments [times[i], times[i+1]) clipped to [start, end].
	for i := 0; i < len(ts.times); i++ {
		segStart := ts.times[i]
		segEnd := end
		if i+1 < len(ts.times) {
			segEnd = ts.times[i+1]
		}
		lo := segStart
		if lo < start {
			lo = start
		}
		hi := segEnd
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += ts.values[i] * (hi - lo)
		}
	}
	return total
}

// MeanOver returns the time-averaged value over [start, end].
func (ts *TimeSeries) MeanOver(start, end float64) float64 {
	if end <= start {
		return 0
	}
	return ts.Integral(start, end) / (end - start)
}

// MaxValue returns the maximum sampled value, or 0 for an empty series.
func (ts *TimeSeries) MaxValue() float64 {
	m := 0.0
	for _, v := range ts.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Counter is a monotone event counter rendered as a cumulative time series
// (e.g. "number of grown messages" in Fig. 7f).
type Counter struct {
	ts    TimeSeries
	count float64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds n occurrences at time t.
func (c *Counter) Inc(t float64, n int) {
	c.count += float64(n)
	c.ts.Add(t, c.count)
}

// Total returns the current count.
func (c *Counter) Total() float64 { return c.count }

// Series exposes the cumulative series.
func (c *Counter) Series() *TimeSeries { return &c.ts }
