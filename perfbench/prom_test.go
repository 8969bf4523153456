package main

import (
	"math"
	"strings"
	"testing"
)

const expositionBefore = `# HELP koalad_queue_wait_seconds Time admitted runs wait for a slot.
# TYPE koalad_queue_wait_seconds histogram
koalad_queue_wait_seconds_bucket{le="0.0001"} 2
koalad_queue_wait_seconds_bucket{le="+Inf"} 4
koalad_queue_wait_seconds_sum 0.5
koalad_queue_wait_seconds_count 4
# TYPE koalad_dispatch_rtt_seconds histogram
koalad_dispatch_rtt_seconds_sum{worker="http://a b:1"} 1
koalad_dispatch_rtt_seconds_count{worker="http://a b:1"} 2
koalad_dispatch_rtt_seconds_sum{worker="http://c:2"} 2
koalad_dispatch_rtt_seconds_count{worker="http://c:2"} 2
koalad_cache_hits_total 10
koalad_store_read_seconds_sum 0
koalad_store_read_seconds_count 0
`

const expositionAfter = `koalad_queue_wait_seconds_bucket{le="0.0001"} 3
koalad_queue_wait_seconds_bucket{le="+Inf"} 14
koalad_queue_wait_seconds_sum 1.5
koalad_queue_wait_seconds_count 14
koalad_dispatch_rtt_seconds_sum{worker="http://a b:1"} 4
koalad_dispatch_rtt_seconds_count{worker="http://a b:1"} 4
koalad_dispatch_rtt_seconds_sum{worker="http://c:2"} 5
koalad_dispatch_rtt_seconds_count{worker="http://c:2"} 4
koalad_cache_hits_total 1.5e+01
koalad_store_read_seconds_sum 0
koalad_store_read_seconds_count 0
`

func TestPromSumCountDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(expositionBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(expositionAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`koalad_queue_wait_seconds_bucket{le="+Inf"}`]; got != 4 {
		t.Fatalf("+Inf bucket = %v, want 4", got)
	}
	if got := delta(before, after, "koalad_cache_hits_total"); got != 5 {
		t.Fatalf("counter delta = %v, want 5", got)
	}
	// 1 s over 10 observations.
	if m, n, ok := histMeanMs(before, after, "koalad_queue_wait_seconds"); !ok || n != 10 || math.Abs(m-100) > 1e-9 {
		t.Fatalf("queue wait mean = %v ms over %v (ok %v), want 100 ms over 10", m, n, ok)
	}
	// Labelled series sum across label sets: (3+3) s over (2+2).
	if m, _, ok := histMeanMs(before, after, "koalad_dispatch_rtt_seconds"); !ok || math.Abs(m-1500) > 1e-9 {
		t.Fatalf("rtt mean = %v ms (ok %v), want 1500", m, ok)
	}
	if _, _, ok := histMeanMs(before, after, "koalad_store_read_seconds"); ok {
		t.Fatal("a histogram with no new observations has no mean")
	}
	if _, _, ok := histMeanMs(before, after, "koalad_absent_seconds"); ok {
		t.Fatal("an absent histogram has no mean")
	}
}

func TestPromRejectsMalformedValues(t *testing.T) {
	if _, err := parseProm(strings.NewReader("koalad_x{a=\"b\"} notanumber\n")); err == nil {
		t.Fatal("expected an error for a non-numeric value")
	}
	if _, err := parseProm(strings.NewReader("koalad_lonely\n")); err == nil {
		t.Fatal("expected an error for a line without a value")
	}
}
