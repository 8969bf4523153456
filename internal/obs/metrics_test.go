package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Per-bucket (non-cumulative) counts: 0.05 and 0.1 land in le=0.1
	// (bounds are inclusive), 0.5 in le=1, 5 in le=10, 50 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid bucket layout did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("koalad_test_total", "A counter.")
	c.Add(3)
	g := r.Gauge("koalad_test_depth", "A gauge.")
	g.Set(7)
	r.GaugeFunc("koalad_test_sampled", "A sampled gauge.", func() float64 { return 1.5 })
	r.GaugeFunc("koalad_test_sampled_half", "A fractional sampled gauge.", func() float64 { return 0.5 })
	r.GaugeFunc("koalad_test_sampled_bytes", "An integral sampled gauge.", func() float64 { return 1234567 })
	h := r.Histogram("koalad_test_seconds", "A histogram.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(9)
	v := r.HistogramVec("koalad_test_rtt_seconds", "A labeled histogram.", "worker", []float64{1})
	v.With("http://b:1").Observe(0.5)
	v.With("http://a:1").Observe(3)

	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP koalad_test_total A counter.\n# TYPE koalad_test_total counter\nkoalad_test_total 3\n",
		"koalad_test_depth 7\n",
		"koalad_test_sampled 1.5\n",
		"koalad_test_sampled_half 0.5\n",
		"koalad_test_sampled_bytes 1234567\n", // not 1.234567e+06
		`koalad_test_seconds_bucket{le="0.5"} 1`,
		`koalad_test_seconds_bucket{le="2"} 2`,
		`koalad_test_seconds_bucket{le="+Inf"} 3`,
		"koalad_test_seconds_sum 10.25\n",
		"koalad_test_seconds_count 3\n",
		`koalad_test_rtt_seconds_bucket{worker="http://a:1",le="1"} 0`,
		`koalad_test_rtt_seconds_bucket{worker="http://a:1",le="+Inf"} 1`,
		`koalad_test_rtt_seconds_sum{worker="http://a:1"} 3`,
		`koalad_test_rtt_seconds_bucket{worker="http://b:1",le="1"} 1`,
		`koalad_test_rtt_seconds_count{worker="http://b:1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Label values render sorted: worker a before worker b.
	if strings.Index(out, `worker="http://a:1"`) > strings.Index(out, `worker="http://b:1"`) {
		t.Error("vector children not sorted by label value")
	}
}

func TestRegistryReRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("koalad_x_total", "X.")
	c2 := r.Counter("koalad_x_total", "X.")
	if c1 != c2 {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("koalad_x_total", "X as a gauge.")
}

func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("koalad_x_total", "X.").Add(3)
	v := r.CounterVec("koalad_y_total", "Y.", "worker")
	v.With("a").Inc()
	v.With("b").Add(2)
	r.GaugeFunc("koalad_z", "Z.", func() float64 { return 0.25 })
	h := r.Histogram("koalad_w_seconds", "W.", []float64{1})
	h.Observe(0.5)
	h.Observe(5)
	for name, want := range map[string]float64{
		"koalad_x_total":   3,
		"koalad_y_total":   3, // summed over label values
		"koalad_z":         0.25,
		"koalad_w_seconds": 2, // observation count
	} {
		if got, ok := r.Value(name); !ok || got != want {
			t.Errorf("Value(%s) = %g, %v; want %g, true", name, got, ok, want)
		}
	}
	if _, ok := r.Value("koalad_x"); ok {
		t.Error("Value of an unknown family reported ok")
	}
}
