package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the metric side of the plane: a small registry of
// counters, gauges and fixed-bucket histograms rendered in Prometheus
// text exposition format (version 0.0.4), with one optional label
// dimension for the vector forms. No client library: the daemon's
// dependency budget is the standard library, and the handful of metric
// shapes koalad needs fit in a few hundred lines.

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters never go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative-on-render buckets
// plus the exact sum and count. Observe is lock-free: one atomic add on
// the bucket, count, and the float-bits CAS on the sum.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially growing upper bounds starting at
// start (start, start*factor, ...). It panics on a non-positive start,
// a factor <= 1 or n < 1 — bucket layouts are compile-time decisions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets span 100µs to ~27min exponentially — wide
// enough for queue waits and multi-minute simulations alike.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(100e-6, 4, 12) }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one exposition family: a name, HELP/TYPE, and its children
// (one for plain metrics, one per label value for vectors).
type family struct {
	name, help, typ string
	label           string // vector label name, "" for plain metrics

	mu       sync.Mutex
	order    []string // label values in first-seen order (sorted at render)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sample   func() float64 // gauge func, mutually exclusive with gauges
	bounds   []float64
}

// Registry holds metric families and renders them in registration
// order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns the family, creating it on first registration. A
// re-registration with a different type or label panics: metric
// identity bugs must fail loudly at startup, not render junk.
func (r *Registry) lookup(name, help, typ, label string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s/%q (was %s/%q)", name, typ, label, f.typ, f.label))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, label: label,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or fetches) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, typeCounter, "").child("").(*Counter)
}

// Gauge registers (or fetches) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, typeGauge, "").child("").(*Gauge)
}

// GaugeFunc registers a gauge sampled at render time.
func (r *Registry) GaugeFunc(name, help string, sample func() float64) {
	f := r.lookup(name, help, typeGauge, "")
	f.mu.Lock()
	f.sample = sample
	f.mu.Unlock()
}

// Histogram registers (or fetches) a plain histogram with the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, "")
	f.mu.Lock()
	f.bounds = bounds
	f.mu.Unlock()
	return f.child("").(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the child counter for the label value.
func (v CounterVec) With(value string) *Counter { return v.f.child(value).(*Counter) }

// CounterVec registers a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	return CounterVec{r.lookup(name, help, typeCounter, label)}
}

// GaugeVec is a gauge family keyed by one label (for example the
// per-worker circuit-breaker state).
type GaugeVec struct{ f *family }

// With returns the child gauge for the label value.
func (v GaugeVec) With(value string) *Gauge { return v.f.child(value).(*Gauge) }

// GaugeVec registers a one-label gauge family.
func (r *Registry) GaugeVec(name, help, label string) GaugeVec {
	return GaugeVec{r.lookup(name, help, typeGauge, label)}
}

// HistogramVec is a histogram family keyed by one label (for example
// the dispatch RTT histogram labeled by worker URL).
type HistogramVec struct{ f *family }

// With returns the child histogram for the label value.
func (v HistogramVec) With(value string) *Histogram { return v.f.child(value).(*Histogram) }

// HistogramVec registers a one-label histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) HistogramVec {
	f := r.lookup(name, help, typeHistogram, label)
	f.mu.Lock()
	f.bounds = bounds
	f.mu.Unlock()
	return HistogramVec{f}
}

// child returns the metric for one label value, creating it on first use.
func (f *family) child(value string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch f.typ {
	case typeCounter:
		if c, ok := f.counters[value]; ok {
			return c
		}
		c := &Counter{}
		f.counters[value] = c
		f.order = append(f.order, value)
		return c
	case typeGauge:
		if g, ok := f.gauges[value]; ok {
			return g
		}
		g := &Gauge{}
		f.gauges[value] = g
		f.order = append(f.order, value)
		return g
	case typeHistogram:
		if h, ok := f.hists[value]; ok {
			return h
		}
		h := newHistogram(f.bounds)
		f.hists[value] = h
		f.order = append(f.order, value)
		return h
	}
	panic("obs: unknown metric type " + f.typ)
}

// Value reads a family back by name: a counter's or gauge's value
// (summed over its label values), a sampled gauge's current sample or
// a histogram's observation count. ok is false when no family has that
// name, so a misspelt name cannot read as zero.
func (r *Registry) Value(name string) (v float64, ok bool) {
	r.mu.Lock()
	f := r.byName[name]
	r.mu.Unlock()
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	sample := f.sample
	var n int64
	for _, c := range f.counters {
		n += c.Value()
	}
	for _, g := range f.gauges {
		n += g.Value()
	}
	for _, h := range f.hists {
		n += h.Count()
	}
	f.mu.Unlock()
	if sample != nil {
		return sample(), true
	}
	return float64(n), true
}

// Render writes every family in Prometheus text exposition format:
// one # HELP and # TYPE line per family, children sorted by label value
// so scrapes are stable.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range families {
		f.write(w)
	}
}

// series renders "name{label="value"}" (or just name without a label).
func (f *family) series(value string, extra string) string {
	var labels string
	switch {
	case f.label != "" && extra != "":
		labels = fmt.Sprintf(`{%s=%q,%s}`, f.label, value, extra)
	case f.label != "":
		labels = fmt.Sprintf(`{%s=%q}`, f.label, value)
	case extra != "":
		labels = "{" + extra + "}"
	}
	return f.name + labels
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	values := append([]string(nil), f.order...)
	sample := f.sample
	f.mu.Unlock()
	sort.Strings(values)

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	if sample != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatSample(sample()))
		return
	}
	for _, v := range values {
		switch f.typ {
		case typeCounter:
			f.mu.Lock()
			c := f.counters[v]
			f.mu.Unlock()
			fmt.Fprintf(w, "%s %d\n", f.series(v, ""), c.Value())
		case typeGauge:
			f.mu.Lock()
			g := f.gauges[v]
			f.mu.Unlock()
			fmt.Fprintf(w, "%s %d\n", f.series(v, ""), g.Value())
		case typeHistogram:
			f.mu.Lock()
			h := f.hists[v]
			f.mu.Unlock()
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(f.label, v, formatFloat(bound)), cum)
			}
			// The +Inf bucket equals _count by construction.
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(f.label, v, "+Inf"), h.Count())
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, plainLabels(f.label, v), formatFloat(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, plainLabels(f.label, v), h.Count())
		}
	}
}

func bucketLabels(label, value, le string) string {
	if label == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`{%s=%q,le=%q}`, label, value, le)
}

func plainLabels(label, value string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf(`{%s=%q}`, label, value)
}

// formatSample renders a sampled gauge: an integral value as an integer
// (1234567, not 1.234567e+06, like a Gauge), anything else as
// formatFloat does.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, no exponent for typical magnitudes.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
