package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels string // raw {...} content, "" for none
	value  float64
}

// promFamily is one parsed metric family: HELP + TYPE + its samples.
type promFamily struct {
	help    string
	typ     string
	samples []promSample
}

// parseProm is a strict Prometheus text-format (0.0.4) parser: every
// sample must belong to a family already declared with # HELP and
// # TYPE, comments must be well-formed, and values must parse. It
// returns families keyed by name. This is the round-trip check on the
// /metrics handler — a malformed line a real scraper would reject
// fails the test here.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := make(map[string]*promFamily)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" || help == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			fams[name] = &promFamily{help: help}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			f := fams[name]
			if f == nil {
				t.Fatalf("line %d: TYPE for %s before its HELP", ln+1, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}

		metric, valueStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels := metric, ""
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, metric)
			}
			name, labels = metric[:i], metric[i+1:len(metric)-1]
		}
		var value float64
		if valueStr == "+Inf" {
			// only histogram buckets carry +Inf, and only in le=
			t.Fatalf("line %d: +Inf sample value in %q", ln+1, line)
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value in %q: %v", ln+1, line, err)
		}
		// Resolve the owning family: exact name, or the base name for
		// histogram series (_bucket/_sum/_count).
		owner := fams[name]
		if owner == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil && fams[base].typ == "histogram" {
					owner = fams[base]
					break
				}
			}
		}
		if owner == nil {
			t.Fatalf("line %d: sample %s has no preceding HELP/TYPE", ln+1, name)
		}
		if owner.typ == "" {
			t.Fatalf("line %d: sample %s has HELP but no TYPE", ln+1, name)
		}
		owner.samples = append(owner.samples, promSample{name: name, labels: labels, value: value})
	}
	return fams
}

// checkHistogram validates one histogram family's invariants per label
// set: cumulative non-decreasing buckets, an le="+Inf" bucket equal to
// _count, and a _sum/_count pair.
func checkHistogram(t *testing.T, name string, f *promFamily) {
	t.Helper()
	type series struct {
		buckets []promSample
		sum     *promSample
		count   *promSample
	}
	// Key bucket series by their labels minus le.
	stripLe := func(labels string) string {
		var kept []string
		for _, part := range strings.Split(labels, ",") {
			if part != "" && !strings.HasPrefix(part, "le=") {
				kept = append(kept, part)
			}
		}
		sort.Strings(kept)
		return strings.Join(kept, ",")
	}
	bySeries := make(map[string]*series)
	get := func(k string) *series {
		if bySeries[k] == nil {
			bySeries[k] = &series{}
		}
		return bySeries[k]
	}
	for i, s := range f.samples {
		k := stripLe(s.labels)
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			get(k).buckets = append(get(k).buckets, f.samples[i])
		case strings.HasSuffix(s.name, "_sum"):
			get(k).sum = &f.samples[i]
		case strings.HasSuffix(s.name, "_count"):
			get(k).count = &f.samples[i]
		default:
			t.Fatalf("%s: stray histogram sample %s", name, s.name)
		}
	}
	for k, s := range bySeries {
		if len(s.buckets) == 0 || s.sum == nil || s.count == nil {
			t.Fatalf("%s{%s}: incomplete histogram (buckets=%d sum=%v count=%v)",
				name, k, len(s.buckets), s.sum != nil, s.count != nil)
		}
		prev := -1.0
		sawInf := false
		for _, b := range s.buckets {
			if b.value < prev {
				t.Fatalf("%s{%s}: buckets not cumulative (%g after %g)", name, k, b.value, prev)
			}
			prev = b.value
			if strings.Contains(b.labels, `le="+Inf"`) {
				sawInf = true
				if b.value != s.count.value {
					t.Fatalf("%s{%s}: +Inf bucket %g != count %g", name, k, b.value, s.count.value)
				}
			}
		}
		if !sawInf {
			t.Fatalf("%s{%s}: no le=\"+Inf\" bucket", name, k)
		}
	}
}

// TestMetricsExpositionRoundTrip scrapes the live /metrics handler
// after a run and parses every line with a strict text-format parser:
// each sample must trace back to a HELP/TYPE pair, and each histogram
// family must be internally consistent. This is the guard that keeps
// the registry renderer scrapeable by real Prometheus.
func TestMetricsExpositionRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sr, _ := postConfig(t, ts, tinyConfig)
	readEvents(t, ts, sr.ID)

	text := string(mustGet(t, ts, "/metrics"))
	fams := parseProm(t, text)

	for _, want := range []struct{ name, typ string }{
		{"koalad_goroutines", "gauge"},
		{"koalad_registry_runs", "gauge"},
		{"koalad_queue_depth", "gauge"},
		{"koalad_replications_total", "counter"},
		{"koalad_cache_hit_rate", "gauge"},
		{"koalad_queue_wait_seconds", "histogram"},
		{"koalad_run_duration_seconds", "histogram"},
		{"koalad_follower_write_stall_seconds", "histogram"},
		{"koalad_event_followers", "gauge"},
		{"koalad_follower_disconnects_total", "counter"},
	} {
		f := fams[want.name]
		if f == nil {
			t.Fatalf("family %s missing from /metrics:\n%s", want.name, text)
		}
		if f.typ != want.typ {
			t.Fatalf("family %s type = %s, want %s", want.name, f.typ, want.typ)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s has no samples", want.name)
		}
	}
	for name, f := range fams {
		if f.typ == "histogram" {
			checkHistogram(t, name, f)
		}
	}
	// The process gauges must carry live values: a running server has
	// goroutines, and exactly the one completed run is registered.
	if v := fams["koalad_goroutines"].samples[0].value; v < 1 {
		t.Errorf("koalad_goroutines = %g, want >= 1", v)
	}
	if v := fams["koalad_registry_runs"].samples[0].value; v != 1 {
		t.Errorf("koalad_registry_runs = %g, want 1", v)
	}
	// The completed run must have landed one observation in the queue
	// and duration histograms.
	for _, name := range []string{"koalad_queue_wait_seconds", "koalad_run_duration_seconds"} {
		count := 0.0
		for _, s := range fams[name].samples {
			if s.name == name+"_count" {
				count = s.value
			}
		}
		if count != 1 {
			t.Errorf("%s_count = %g, want 1", name, count)
		}
	}
}

// TestHealthzShape is the JSON-shape regression: the exact key set of
// /healthz is part of the operational API — dashboards and the CI
// multinode smoke select on these fields, so adding is fine, renaming
// or dropping is a break this test catches.
func TestHealthzShape(t *testing.T) {
	_, ts := newTestServer(t, Options{Version: "v-test", Role: "coordinator"})
	var body map[string]any
	if err := json.Unmarshal(mustGet(t, ts, "/healthz"), &body); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"status", "version", "role", "backend", "uptime_seconds",
		"active_runs", "queued_runs", "in_flight_replications",
		"followers", "runs", "cache_size",
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if strings.Join(got, ",") != strings.Join(sorted, ",") {
		t.Fatalf("healthz keys = %v, want %v", got, sorted)
	}
	if body["status"] != "ok" || body["version"] != "v-test" || body["backend"] != "local" {
		t.Fatalf("healthz values = %v", body)
	}
	if _, ok := body["uptime_seconds"].(float64); !ok {
		t.Fatalf("uptime_seconds is %T, want number", body["uptime_seconds"])
	}
}

// TestFollowerDisconnectAccounting pins the stream accounting: a
// follower that leaves before the run's terminal event decrements the
// attached-followers gauge and increments the disconnect counter.
func TestFollowerDisconnectAccounting(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	_, release := blockRuns(s) // pin the run in Running so the follower must wait
	// A follower's accounting is final once its events handler returns;
	// eventsDone reports that return.
	eventsDone := make(chan struct{}, 1)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			select {
			case eventsDone <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(ts.Close)

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}

	// Attach a follower, read the first event, then hang up mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/experiments/"+sr.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err) // the accepted event is already in the log
	}
	// The handler counts the follower before it writes the first event.
	if n := s.followers.Value(); n != 1 {
		t.Fatalf("followers gauge = %d while attached, want 1", n)
	}
	cancel()
	resp.Body.Close()

	<-eventsDone
	if f, d := s.followers.Value(), s.followerDisconnects.Value(); f != 0 || d != 1 {
		t.Fatalf("after hang-up: followers = %d, disconnects = %d; want 0 and 1", f, d)
	}

	// Release the run and drain cleanly; a clean follower then reads to
	// the terminal event without touching the disconnect counter. The
	// hook is left in place — clearing blockRuns here would race the
	// execute goroutine's read, and receives from a closed channel fall
	// through anyway.
	close(release)
	readEvents(t, ts, sr.ID)
	if n := s.followerDisconnects.Value(); n != 1 {
		t.Fatalf("disconnects after clean read = %d, want 1", n)
	}
	if s.followers.Value() != 0 {
		t.Fatalf("followers gauge = %d after streams closed", s.followers.Value())
	}
}

// metric reads one of s's families back from its registry by name; an
// unknown name fails the test instead of reading as zero.
func metric(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, ok := s.metrics.Value(name)
	if !ok {
		t.Fatalf("no metric family %s", name)
	}
	return v
}

// TestTraceEndpoint pins the single-node trace: every lifecycle phase
// appears, correctly parented — replications under dispatch, dispatch
// and queue under the root run span.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sr, _ := postConfig(t, ts, tinyConfig)
	readEvents(t, ts, sr.ID)

	var trace obs.TraceJSON
	if err := json.Unmarshal(mustGet(t, ts, "/v1/experiments/"+sr.ID+"/trace"), &trace); err != nil {
		t.Fatal(err)
	}
	if trace.TraceID == "" {
		t.Fatal("trace has no ID")
	}
	byName := make(map[string][]obs.Span)
	for _, sp := range trace.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"run", "admit", "queue", "dispatch", "replication", "stream-follower"} {
		if len(byName[name]) == 0 {
			t.Fatalf("trace missing %q span: %+v", name, trace.Spans)
		}
	}
	root := byName["run"][0]
	if root.Parent != "" {
		t.Fatalf("run span has parent %q, want root", root.Parent)
	}
	if root.End.IsZero() {
		t.Fatal("run span never ended")
	}
	dispatch := byName["dispatch"][0]
	if dispatch.Parent != root.ID {
		t.Fatalf("dispatch parent = %q, want run span %q", dispatch.Parent, root.ID)
	}
	if len(byName["replication"]) != 2 {
		t.Fatalf("replication spans = %d, want 2", len(byName["replication"]))
	}
	for _, rep := range byName["replication"] {
		if rep.Parent != dispatch.ID {
			t.Fatalf("replication parent = %q, want dispatch %q", rep.Parent, dispatch.ID)
		}
		if rep.End.Before(rep.Start) {
			t.Fatalf("replication span ends before it starts: %+v", rep)
		}
	}

	// Unknown IDs are a 404 like the other run endpoints.
	resp, err := http.Get(ts.URL + "/v1/experiments/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown run = %d, want 404", resp.StatusCode)
	}
}
