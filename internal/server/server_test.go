package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
)

// tinyConfig is a seconds-fast experiment: 4 jobs, 2 replications, a
// two-cluster grid, no background load.
const tinyConfig = `{
	"workload": {"name":"tiny","jobs":4,"inter_arrival":30,"malleable_fraction":1,"initial_size":2,"rigid_size":2},
	"grid": {"clusters":[{"name":"A","nodes":48},{"name":"B","nodes":32}]},
	"no_background": true,
	"runs": 2,
	"seed": 1
}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postConfig(t *testing.T, ts *httptest.Server, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

// readEvents consumes the NDJSON stream until the terminal event and
// returns every event as a generic map.
func readEvents(t *testing.T, ts *httptest.Server, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/experiments/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEndToEndSubmitStreamAndCacheHit is the tentpole's acceptance
// test: POST → NDJSON event stream → final summary; identical re-POST
// is a cache hit answered without re-simulation; the streamed summary
// matches the batch engine for the same config and seed.
func TestEndToEndSubmitStreamAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	if sr.Cached || sr.ID == "" || len(sr.Hash) != 64 {
		t.Fatalf("first POST response = %+v", sr)
	}

	// The event stream replays from the start and follows to the
	// terminal summary event.
	events := readEvents(t, ts, sr.ID)
	if len(events) < 4 {
		t.Fatalf("events = %d, want accepted + 2 replications + summary", len(events))
	}
	if events[0]["type"] != "accepted" {
		t.Fatalf("first event = %v", events[0])
	}
	reps, traces := 0, 0
	for _, ev := range events[1 : len(events)-1] {
		switch ev["type"] {
		case "replication":
			reps++
		case "trace":
			traces++
		default:
			t.Fatalf("mid-stream event = %v", ev)
		}
	}
	if reps != 2 {
		t.Fatalf("replication events = %d, want 2", reps)
	}
	if traces != 1 {
		t.Fatalf("trace events = %d, want 1 before the terminal summary", traces)
	}
	last := events[len(events)-1]
	if last["type"] != "summary" {
		t.Fatalf("terminal event = %v", last)
	}

	// GET returns the stored summary, which matches the batch engine.
	var got getResponse
	resp, err := http.Get(ts.URL + "/v1/experiments/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Status != StatusDone || got.Summary == nil {
		t.Fatalf("GET after summary: %+v", got)
	}

	spec, err := experiment.DecodeConfigSpec(strings.NewReader(tinyConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Jobs != len(batch.Pooled) {
		t.Errorf("server jobs = %d, batch %d", got.Summary.Jobs, len(batch.Pooled))
	}
	if got.Summary.MeanUtilization != batch.MeanUtilization() {
		t.Errorf("server mean util = %v, batch %v", got.Summary.MeanUtilization, batch.MeanUtilization())
	}
	if d := got.Summary.Exec.Mean - batch.MeanExecution(); d > 1e-9 || d < -1e-9 {
		t.Errorf("server mean exec = %v, batch %v", got.Summary.Exec.Mean, batch.MeanExecution())
	}

	// Identical re-submission: cache hit, same run, no new simulation.
	runsBefore := s.registry.Len()
	missesBefore := metric(t, s, "koalad_cache_misses_total")
	repsBefore := metric(t, s, "koalad_replications_total")
	sr2, code2 := postConfig(t, ts, tinyConfig)
	if code2 != http.StatusOK {
		t.Fatalf("re-POST status = %d, want 200", code2)
	}
	if !sr2.Cached || sr2.ID != sr.ID || sr2.Hash != sr.Hash {
		t.Fatalf("re-POST response = %+v, want cached same run", sr2)
	}
	if s.registry.Len() != runsBefore || metric(t, s, "koalad_cache_misses_total") != missesBefore {
		t.Error("cache hit created a new run")
	}
	if metric(t, s, "koalad_replications_total") != repsBefore {
		t.Error("cache hit re-simulated replications")
	}
	if metric(t, s, "koalad_cache_hits_total") != 1 {
		t.Errorf("cache hits = %g, want 1", metric(t, s, "koalad_cache_hits_total"))
	}

	// A semantically different config is a miss.
	other := strings.Replace(tinyConfig, `"seed": 1`, `"seed": 2`, 1)
	sr3, _ := postConfig(t, ts, other)
	if sr3.Cached || sr3.ID == sr.ID {
		t.Fatalf("different seed should not hit the cache: %+v", sr3)
	}
}

// TestConcurrentEventSubscribers streams the same run from several
// connections at once — a regression for the NDJSON writer mutating
// the stored events' shared backing arrays (caught by -race).
func TestConcurrentEventSubscribers(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	parked, release := blockRuns(s)

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	awaitParked(t, parked, sr.ID)

	// Raw line reader: t.Fatal is not legal off the test goroutine.
	subscribe := func() ([]string, error) {
		resp, err := http.Get(ts.URL + "/v1/experiments/" + sr.ID + "/events")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		return lines, sc.Err()
	}
	var wg sync.WaitGroup
	results := make([][]string, 4)
	errs := make([]error, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = subscribe()
		}(i)
	}
	close(release)
	wg.Wait()
	for i, lines := range results {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		if len(lines) != len(results[0]) {
			t.Fatalf("subscriber %d saw %d events, subscriber 0 saw %d", i, len(lines), len(results[0]))
		}
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("subscriber %d bad terminal line: %v", i, err)
		}
		if last["type"] != "summary" {
			t.Fatalf("subscriber %d terminal event = %v", i, last)
		}
	}
}

// TestFollowersReceiveIdenticalBytes pins the encode-once contract of the
// event log: every event is marshalled and newline-framed exactly once, at
// append time, and each follower's stream is a single Write per event of
// those stored bytes. N concurrent followers racing a live run must
// therefore receive byte-identical NDJSON bodies — any per-follower
// re-encoding or re-framing (or a writer mutating a shared backing array,
// which -race would catch) breaks this.
func TestFollowersReceiveIdenticalBytes(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	parked, release := blockRuns(s)

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	awaitParked(t, parked, sr.ID)

	const followers = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, followers)
	errs := make([]error, followers)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/experiments/" + sr.ID + "/events")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(release)
	wg.Wait()

	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("follower %d received different bytes than follower 0:\n%q\nvs\n%q",
				i, bodies[i], bodies[0])
		}
	}
	body := bodies[0]
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("stream is not newline-terminated: %q", body)
	}
	// Every line must be a standalone JSON document — exactly the bytes a
	// single json.Marshal produced, with no stray framing.
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'}) {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		``,
		`not json`,
		`{"workload":{"preset":"NOPE"}}`,
		`{"workload":{"preset":"Wm"},"polcy":"EGS"}`,
		`{"workload":{"preset":"Wm"},"policy":"NOPE"}`,
	} {
		if _, code := postConfig(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, code)
		}
	}
}

func TestUnknownRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/experiments/nope", "/v1/experiments/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		// 404s carry a JSON error object, never an empty body.
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s content-type = %q, want application/json", path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Errorf("GET %s body not JSON: %v", path, err)
		} else if body.Error == "" {
			t.Errorf("GET %s error body empty", path)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestGetDetailTimingsAndSource pins the detail endpoint's
// observability block: provenance plus lifecycle timings for runs
// simulated in this process.
func TestGetDetailTimingsAndSource(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sr, _ := postConfig(t, ts, tinyConfig)
	readEvents(t, ts, sr.ID)

	var got getResponse
	if err := json.Unmarshal(mustGet(t, ts, "/v1/experiments/"+sr.ID), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Source != SourceLive {
		t.Fatalf("detail = status %s source %s, want done/live", got.Status, got.Source)
	}
	tm := got.Timings
	if tm == nil || tm.SubmittedAt.IsZero() || tm.StartedAt == nil || tm.FinishedAt == nil {
		t.Fatalf("timings = %+v, want submitted/started/finished", tm)
	}
	if tm.StartedAt.Before(tm.SubmittedAt) || tm.FinishedAt.Before(*tm.StartedAt) {
		t.Fatalf("timings out of order: %+v", tm)
	}
	if tm.RunSeconds <= 0 {
		t.Fatalf("run_seconds = %v, want > 0", tm.RunSeconds)
	}
}

func TestCoalescedSubmission(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	parked, release := blockRuns(s) // pin the first run in Running

	sr1, code1 := postConfig(t, ts, tinyConfig)
	if code1 != http.StatusAccepted {
		t.Fatalf("POST status = %d", code1)
	}
	awaitParked(t, parked, sr1.ID)
	sr2, code2 := postConfig(t, ts, tinyConfig)
	if code2 != http.StatusAccepted {
		t.Fatalf("second POST status = %d", code2)
	}
	if sr2.ID != sr1.ID || !sr2.Coalesced || sr2.Cached {
		t.Fatalf("identical in-flight POST = %+v, want coalesced onto %s", sr2, sr1.ID)
	}
	if s.registry.Len() != 1 {
		t.Fatalf("runs = %d, want 1", s.registry.Len())
	}
	if metric(t, s, "koalad_cache_coalesced_total") != 1 {
		t.Fatalf("coalesced counter = %g, want 1", metric(t, s, "koalad_cache_coalesced_total"))
	}
	close(release)
	events := readEvents(t, ts, sr1.ID)
	if events[len(events)-1]["type"] != "summary" {
		t.Fatal("run did not finish after release")
	}
}

// TestListExperiments pins GET /v1/experiments: every resident run in
// sequence order with id, fingerprint, status and source — the only
// way to find a result again without having kept its ID.
func TestListExperiments(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	// Empty daemon: an empty list, not a 404 or null.
	var list listResponse
	if err := json.Unmarshal(mustGet(t, ts, "/v1/experiments"), &list); err != nil {
		t.Fatal(err)
	}
	if list.Experiments == nil || len(list.Experiments) != 0 {
		t.Fatalf("empty list = %+v", list.Experiments)
	}

	parked, release := blockRuns(s) // pin the runs in Running for a mixed-status list
	sr1, _ := postConfig(t, ts, tinyConfig)
	awaitParked(t, parked, sr1.ID)
	sr2, _ := postConfig(t, ts, strings.Replace(tinyConfig, `"seed": 1`, `"seed": 2`, 1))

	if err := json.Unmarshal(mustGet(t, ts, "/v1/experiments"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != 2 {
		t.Fatalf("list = %d entries, want 2", len(list.Experiments))
	}
	for i, want := range []submitResponse{sr1, sr2} {
		got := list.Experiments[i]
		if got.ID != want.ID || got.Hash != want.Hash || got.Source != SourceLive {
			t.Fatalf("list[%d] = %+v, want run %s", i, got, want.ID)
		}
		if got.URL != "/v1/experiments/"+want.ID || got.EventsURL != got.URL+"/events" {
			t.Fatalf("list[%d] urls = %+v", i, got)
		}
	}
	if st := list.Experiments[0].Status; st != StatusRunning && st != StatusQueued {
		t.Fatalf("list[0].Status = %s", st)
	}
	close(release)
	readEvents(t, ts, sr1.ID)
	readEvents(t, ts, sr2.ID)

	if err := json.Unmarshal(mustGet(t, ts, "/v1/experiments"), &list); err != nil {
		t.Fatal(err)
	}
	for i, item := range list.Experiments {
		if item.Status != StatusDone {
			t.Fatalf("list[%d] after completion = %+v", i, item)
		}
	}
}

func mustGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockRuns parks every run of s once it turns Running, until release is
// closed. Each run reports its ID on parked as it parks, so a test waits
// on that report instead of polling the run's status. parked is buffered
// because tests receive only the reports they wait for: a run whose
// report nobody receives must still get past the block once released
// (16 is more runs than any test starts on one server).
func blockRuns(s *Server) (parked <-chan string, release chan struct{}) {
	blk := &runBlock{parked: make(chan string, 16), release: make(chan struct{})}
	s.blockRuns = blk
	return blk.parked, blk.release
}

// awaitParked waits for the next run to park and requires it to be id.
func awaitParked(t *testing.T, parked <-chan string, id string) {
	t.Helper()
	if got := <-parked; got != id {
		t.Fatalf("run %s parked, want %s", got, id)
	}
}

func TestAdmissionBound(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: 1, Parallelism: 1})
	parked, release := blockRuns(s)

	mk := func(seed int) string {
		return strings.Replace(tinyConfig, `"seed": 1`, fmt.Sprintf(`"seed": %d`, seed), 1)
	}
	// Seed 1 takes the only slot (pinned Running); seed 2 waits in the
	// queue; seed 3 must bounce with 429.
	sr1, code := postConfig(t, ts, mk(1))
	if code != http.StatusAccepted {
		t.Fatalf("POST 1 status = %d", code)
	}
	awaitParked(t, parked, sr1.ID)
	sr2, code := postConfig(t, ts, mk(2))
	if code != http.StatusAccepted {
		t.Fatalf("POST 2 status = %d", code)
	}
	if _, code := postConfig(t, ts, mk(3)); code != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST status = %d, want 429", code)
	}
	// An identical re-submission is coalesced, not rejected, even with
	// the queue full — the cache answers it without admission.
	srDup, code := postConfig(t, ts, mk(1))
	if code != http.StatusAccepted || srDup.ID != sr1.ID || !srDup.Coalesced {
		t.Fatalf("identical POST while full = %+v (%d)", srDup, code)
	}
	close(release)
	readEvents(t, ts, sr1.ID)
	readEvents(t, ts, sr2.ID)
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The in-flight run drained to completion.
	run := s.registry.Get(sr.ID)
	if st := run.Status(); st != StatusDone {
		t.Fatalf("run status after drain = %s, want done", st)
	}
	// New submissions are refused while draining/closed.
	if _, code := postConfig(t, ts, tinyConfig); code != http.StatusServiceUnavailable {
		t.Fatalf("POST after shutdown = %d, want 503", code)
	}
	// Health reports draining — with a 503, so coordinator health
	// rings and load balancers stop routing to this worker instead of
	// discovering the drain one bounced dispatch at a time.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status code while draining = %d, want 503", resp.StatusCode)
	}
	if hz.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", hz.Status)
	}
}

func TestPprofEndpointsGatedByOption(t *testing.T) {
	_, ts := newTestServer(t, Options{EnablePprof: true})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d, want 200", resp.StatusCode)
	}
	_, off := newTestServer(t, Options{})
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Version: "test-1.2.3"})
	sr, _ := postConfig(t, ts, tinyConfig)
	readEvents(t, ts, sr.ID)
	postConfig(t, ts, tinyConfig) // cache hit

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Version != "test-1.2.3" || hz.Runs != 1 || hz.CacheSize != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"koalad_queue_depth 0",
		"koalad_active_runs 0",
		"koalad_active_simulations 0",
		"koalad_replications_total 2",
		"koalad_cache_hits_total 1",
		"koalad_cache_misses_total 1",
		"koalad_cache_hit_rate 0.5",
		"koalad_cache_size 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if metric(t, s, "koalad_cache_hit_rate") != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", metric(t, s, "koalad_cache_hit_rate"))
	}
}

// TestRetentionBound pins that a long-lived server forgets the oldest
// terminal runs beyond MaxRetained: registry and cache stay bounded.
func TestRetentionBound(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxRetained: 1})
	mk := func(seed int) string {
		return strings.Replace(tinyConfig, `"seed": 1`, fmt.Sprintf(`"seed": %d`, seed), 1)
	}
	sr1, _ := postConfig(t, ts, mk(1))
	readEvents(t, ts, sr1.ID)
	sr2, _ := postConfig(t, ts, mk(2))
	readEvents(t, ts, sr2.ID)

	// Retirement lands before the terminal event: once run 2's stream
	// has ended, run 1 is already gone.
	if s.registry.Get(sr1.ID) != nil {
		t.Fatal("oldest run not evicted beyond the retention bound")
	}
	if s.registry.Get(sr2.ID) == nil {
		t.Fatal("newest run evicted")
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache size = %d, want 1", s.cache.Len())
	}
	// The evicted run's endpoints now 404; its config re-simulates on a
	// fresh POST (a miss, not a hit).
	resp, err := http.Get(ts.URL + "/v1/experiments/" + sr1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted run = %d, want 404", resp.StatusCode)
	}
	missesBefore := metric(t, s, "koalad_cache_misses_total")
	sr3, code := postConfig(t, ts, mk(1))
	if code != http.StatusAccepted || sr3.Cached || sr3.ID == sr1.ID {
		t.Fatalf("re-POST of evicted config = %+v (%d)", sr3, code)
	}
	if metric(t, s, "koalad_cache_misses_total") != missesBefore+1 {
		t.Fatal("re-POST of evicted config was not a miss")
	}
	readEvents(t, ts, sr3.ID)
}

// TestFailedRunLeavesCache pins retry semantics: a failed run is
// evicted, so the same config can be resubmitted.
func TestFailedRunLeavesCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// Valid at decode time, fails at run time: a grid too small for the
	// workload's initial size triggers submission errors.
	bad := `{
		"workload": {"name":"toobig","jobs":2,"inter_arrival":30,"malleable_fraction":1,"initial_size":64,"rigid_size":2},
		"grid": {"clusters":[{"name":"A","nodes":4}]},
		"no_background": true,
		"runs": 1
	}`
	sr, code := postConfig(t, ts, bad)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	events := readEvents(t, ts, sr.ID)
	last := events[len(events)-1]
	if last["type"] != "error" {
		t.Fatalf("terminal event = %v, want error", last)
	}
	if run := s.registry.Get(sr.ID); run.Status() != StatusFailed {
		t.Fatal("run not marked failed")
	}
	if s.cache.Len() != 0 {
		t.Fatal("failed run stayed in the cache")
	}
	// Re-POST starts a fresh run rather than hitting the failed one.
	sr2, code2 := postConfig(t, ts, bad)
	if code2 != http.StatusAccepted || sr2.ID == sr.ID || sr2.Cached {
		t.Fatalf("re-POST after failure = %+v (%d)", sr2, code2)
	}
	readEvents(t, ts, sr2.ID)
}
