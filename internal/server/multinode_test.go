package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/obs"
)

// testLogger routes a backend's structured log lines into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// postExecute POSTs a config to the internal worker endpoint and
// consumes the NDJSON response to its end.
func postExecute(t *testing.T, ts *httptest.Server, body string) ([]map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+backend.ExecutePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
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
	return events, resp.StatusCode
}

// TestExecuteEndpoint pins the worker half of multi-node koalad: one
// POST submits and follows a run in a single NDJSON response, and an
// identical re-POST answers from the cache without re-simulating.
func TestExecuteEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	events, code := postExecute(t, ts, tinyConfig)
	if code != http.StatusOK {
		t.Fatalf("execute status = %d, want 200", code)
	}
	if len(events) < 4 || events[0]["type"] != "accepted" || events[len(events)-1]["type"] != "summary" {
		t.Fatalf("execute events = %+v", events)
	}
	if metric(t, s, "koalad_worker_executes_total") != 1 || metric(t, s, "koalad_worker_dedup_total") != 0 {
		t.Fatalf("worker counters = %g/%g, want 1/0", metric(t, s, "koalad_worker_executes_total"), metric(t, s, "koalad_worker_dedup_total"))
	}

	// Dedupe: the same fingerprint answers terminally, zero simulation.
	repsBefore := metric(t, s, "koalad_replications_total")
	events2, code2 := postExecute(t, ts, tinyConfig)
	if code2 != http.StatusOK {
		t.Fatalf("re-execute status = %d", code2)
	}
	if events2[len(events2)-1]["type"] != "summary" {
		t.Fatalf("re-execute terminal event = %v", events2[len(events2)-1])
	}
	if metric(t, s, "koalad_replications_total") != repsBefore {
		t.Fatal("deduped execute re-simulated replications")
	}
	if s.registry.Len() != 1 {
		t.Fatalf("registry = %d runs, want 1", s.registry.Len())
	}
	if metric(t, s, "koalad_worker_dedup_total") != 1 {
		t.Fatalf("dedup counter = %g, want 1", metric(t, s, "koalad_worker_dedup_total"))
	}
	text := string(mustGet(t, ts, "/metrics"))
	for _, want := range []string{
		"koalad_worker_executes_total 2",
		"koalad_worker_dedup_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Bad specs are a 400, like the public submit endpoint.
	if _, code := postExecute(t, ts, `{"workload":{"preset":"NOPE"}}`); code != http.StatusBadRequest {
		t.Fatalf("bad execute spec status = %d, want 400", code)
	}
}

// TestDispatcherRoutesToWorker wires a coordinator daemon to a worker
// daemon over real HTTP and pins the whole multi-node path: the run is
// admitted by the coordinator, simulated by the worker, streamed back
// through the coordinator's event log, and its summary is byte-for-byte
// what a single-node daemon produces for the same config.
func TestDispatcherRoutesToWorker(t *testing.T) {
	worker, workerTS := newTestServer(t, Options{Role: "worker"})
	// The coordinator and its dispatcher share a registry, as in
	// cmd/koalad, so the dispatch families reach its /metrics.
	metrics := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{workerTS.URL}, Log: testLogger(t), Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	coord, coordTS := newTestServer(t, Options{Backend: rb, Role: "coordinator", Metrics: metrics})
	single, singleTS := newTestServer(t, Options{})

	sr, code := postConfig(t, coordTS, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("coordinator POST status = %d", code)
	}
	events := readEvents(t, coordTS, sr.ID)
	if events[len(events)-1]["type"] != "summary" {
		t.Fatalf("coordinator terminal event = %v", events[len(events)-1])
	}
	reps := 0
	for _, ev := range events {
		if ev["type"] == "replication" {
			reps++
		}
	}
	if reps != 2 {
		t.Fatalf("coordinator streamed %d replication events, want 2", reps)
	}
	// The worker simulated (its execute endpoint admitted the run);
	// the coordinator only relayed progress — its repsDone counts the
	// replication events streamed back, and the dispatch counters
	// prove where the work ran.
	if metric(t, worker, "koalad_replications_total") != 2 || metric(t, worker, "koalad_worker_executes_total") != 1 {
		t.Fatalf("worker repsDone/executes = %g/%g, want 2/1",
			metric(t, worker, "koalad_replications_total"), metric(t, worker, "koalad_worker_executes_total"))
	}
	if metric(t, coord, "koalad_replications_total") != 2 || metric(t, coord, "koalad_worker_executes_total") != 0 {
		t.Fatalf("coordinator repsDone/executes = %g/%g, want 2/0 (streamed, not simulated)",
			metric(t, coord, "koalad_replications_total"), metric(t, coord, "koalad_worker_executes_total"))
	}
	if d, done, f := metric(t, coord, "koalad_dispatch_remote_total"), metric(t, coord, "koalad_dispatch_remote_done_total"),
		metric(t, coord, "koalad_dispatch_failover_total"); d != 1 || done != 1 || f != 0 {
		t.Fatalf("dispatched/remote done/failovers = %g/%g/%g, want 1/1/0", d, done, f)
	}

	// Byte-for-byte: the coordinator's summary equals the single-node
	// daemon's for the identical config.
	sr2, _ := postConfig(t, singleTS, tinyConfig)
	readEvents(t, singleTS, sr2.ID)
	_ = single
	type wire struct {
		Summary json.RawMessage `json:"summary"`
	}
	var cw, sw wire
	if err := json.Unmarshal(mustGet(t, coordTS, "/v1/experiments/"+sr.ID), &cw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustGet(t, singleTS, "/v1/experiments/"+sr2.ID), &sw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw.Summary, sw.Summary) {
		t.Fatalf("dispatched summary diverges from single-node:\ncoord:  %s\nsingle: %s", cw.Summary, sw.Summary)
	}

	// Coordinator metrics expose the dispatch counters.
	text := string(mustGet(t, coordTS, "/metrics"))
	for _, want := range []string{
		"koalad_dispatch_workers 1",
		"koalad_dispatch_remote_total 1",
		"koalad_dispatch_remote_done_total 1",
		"koalad_dispatch_failover_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator metrics missing %q", want)
		}
	}
	// And /healthz reports role and backend.
	var hz healthzResponse
	if err := json.Unmarshal(mustGet(t, coordTS, "/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "coordinator" || hz.Backend != "remote" {
		t.Fatalf("coordinator healthz = %+v", hz)
	}
}

// TestDispatchTracePropagation pins the cross-node half of the
// observability plane: the coordinator's dispatch stamps its trace and
// span identity on the execute request, the worker records its own
// lifecycle into that trace ID, streams its spans back as a trace
// event, and the coordinator's /trace then shows the worker's run span
// parented under the coordinator's dispatch span.
func TestDispatchTracePropagation(t *testing.T) {
	_, workerTS := newTestServer(t, Options{Role: "worker"})
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{workerTS.URL}, Log: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	_, coordTS := newTestServer(t, Options{Backend: rb, Role: "coordinator"})

	sr, code := postConfig(t, coordTS, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	readEvents(t, coordTS, sr.ID)

	var trace obs.TraceJSON
	if err := json.Unmarshal(mustGet(t, coordTS, "/v1/experiments/"+sr.ID+"/trace"), &trace); err != nil {
		t.Fatal(err)
	}
	var dispatch, coordRun, workerRun *obs.Span
	for i, sp := range trace.Spans {
		if sp.Name == "run" && sp.Parent == "" {
			coordRun = &trace.Spans[i]
		}
	}
	if coordRun == nil {
		t.Fatalf("coordinator trace has no root run span: %+v", trace.Spans)
	}
	// Both daemons record a dispatch span (the worker's is imported);
	// the coordinator's is the one under its root run span.
	for i, sp := range trace.Spans {
		if sp.Name == "dispatch" && sp.Parent == coordRun.ID {
			dispatch = &trace.Spans[i]
		}
	}
	if dispatch == nil {
		t.Fatalf("coordinator trace missing its dispatch span: %+v", trace.Spans)
	}
	for i, sp := range trace.Spans {
		if sp.Name == "run" && sp.Parent == dispatch.ID {
			workerRun = &trace.Spans[i]
		}
	}
	if workerRun == nil {
		t.Fatalf("no worker run span parented under dispatch %s: %+v", dispatch.ID, trace.Spans)
	}
	// The worker's replications rode back too, parented under its own
	// dispatch span, which sits under its run span.
	workerReps := 0
	byID := make(map[string]obs.Span, len(trace.Spans))
	for _, sp := range trace.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range trace.Spans {
		if sp.Name != "replication" {
			continue
		}
		if parent, ok := byID[sp.Parent]; ok && parent.Name == "dispatch" && parent.Parent == workerRun.ID {
			workerReps++
		}
	}
	if workerReps != 2 {
		t.Fatalf("worker replication spans under its dispatch = %d, want 2", workerReps)
	}
}

// TestDispatcherFailsOverToLocal: a coordinator whose only worker is
// unreachable still completes the run locally, byte-identical to a
// single-node daemon, and counts the failover.
func TestDispatcherFailsOverToLocal(t *testing.T) {
	metrics := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{"http://127.0.0.1:1"}, Log: testLogger(t), Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	coord, coordTS := newTestServer(t, Options{Backend: rb, Metrics: metrics})
	_, singleTS := newTestServer(t, Options{})

	sr, code := postConfig(t, coordTS, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	events := readEvents(t, coordTS, sr.ID)
	if events[len(events)-1]["type"] != "summary" {
		t.Fatalf("terminal event = %v", events[len(events)-1])
	}
	if f := metric(t, coord, "koalad_dispatch_failover_total"); f != 1 {
		t.Fatalf("failovers = %g, want 1", f)
	}
	if metric(t, coord, "koalad_replications_total") != 2 {
		t.Fatalf("coordinator repsDone = %g, want 2 after failover", metric(t, coord, "koalad_replications_total"))
	}

	sr2, _ := postConfig(t, singleTS, tinyConfig)
	readEvents(t, singleTS, sr2.ID)
	type wire struct {
		Summary json.RawMessage `json:"summary"`
	}
	var cw, sw wire
	if err := json.Unmarshal(mustGet(t, coordTS, "/v1/experiments/"+sr.ID), &cw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustGet(t, singleTS, "/v1/experiments/"+sr2.ID), &sw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw.Summary, sw.Summary) {
		t.Fatalf("failover summary diverges from single-node:\ncoord:  %s\nsingle: %s", cw.Summary, sw.Summary)
	}
}

// TestSelfDispatchFailsOverInsteadOfDeadlocking pins the nastiest
// mis-wiring: a coordinator whose -workers list routes back to itself.
// The self-addressed execute request must be bounced (503), not
// coalesced onto the very run whose dispatch issued it — coalescing
// would wait for a terminal event that only this response could
// produce. The run then completes via local failover, byte-identical.
func TestSelfDispatchFailsOverInsteadOfDeadlocking(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{ts.URL}, Log: testLogger(t), Metrics: s.metrics})
	if err != nil {
		t.Fatal(err)
	}
	s.backend = rb // the daemon dispatches to itself

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	events := readEvents(t, ts, sr.ID)
	if events[len(events)-1]["type"] != "summary" {
		t.Fatalf("terminal event = %v", events[len(events)-1])
	}
	if f, done := metric(t, s, "koalad_dispatch_failover_total"), metric(t, s, "koalad_dispatch_remote_done_total"); f != 1 || done != 0 {
		t.Fatalf("self-dispatch failovers/remote done = %g/%g, want 1/0", f, done)
	}
	if metric(t, s, "koalad_worker_executes_total") != 0 {
		t.Fatalf("self-dispatched execute was served (%g), want bounced", metric(t, s, "koalad_worker_executes_total"))
	}
}

// TestExecuteNeverReforwards pins the loop guard: runs admitted via
// the execute endpoint run on the in-process backend even when the
// daemon is (mis)configured with a remote backend, so a cycle of
// coordinators cannot bounce a run around forever.
func TestExecuteNeverReforwards(t *testing.T) {
	metrics := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{"http://127.0.0.1:1"}, Log: testLogger(t), Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Backend: rb, Metrics: metrics})
	events, code := postExecute(t, ts, tinyConfig)
	if code != http.StatusOK {
		t.Fatalf("execute status = %d", code)
	}
	if events[len(events)-1]["type"] != "summary" {
		t.Fatalf("terminal event = %v", events[len(events)-1])
	}
	if d := metric(t, s, "koalad_dispatch_remote_total"); d != 0 {
		t.Fatalf("execute-admitted run was re-forwarded: %g dispatched", d)
	}
	if metric(t, s, "koalad_replications_total") != 2 {
		t.Fatalf("repsDone = %g, want 2 (simulated in-process)", metric(t, s, "koalad_replications_total"))
	}
}
