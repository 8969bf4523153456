package backend_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// runPoints dispatches every combo point of a PRA sweep through b at
// once, as koalad's dispatcher does, and returns the results in combo
// order.
func runPoints(t *testing.T, b backend.Backend, combos []experiment.Combo, base experiment.Config) []*experiment.StreamResult {
	t.Helper()
	cfgs := experiment.ComboConfigs("PRA", combos, base)
	out := make([]*experiment.StreamResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = b.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return out
}

// testLogger routes a backend's structured log lines into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testConfig is a seconds-fast point: 4 jobs, 2 replications, a
// two-cluster grid, no background load.
func testConfig(seed uint64) experiment.Config {
	return experiment.Config{
		Workload: workload.Spec{
			Name: "bk", Jobs: 4, InterArrival: 30,
			MalleableFraction: 1, InitialSize: 2, RigidSize: 2, Seed: seed,
		},
		Grid: func() *cluster.Multicluster {
			return cluster.NewMulticluster(cluster.New("A", 48), cluster.New("B", 32))
		},
		NoBackground: true,
		Runs:         2,
		Seed:         seed,
		Parallelism:  1,
	}
}

// encode is the byte-level equivalence probe: two results are "the
// same" exactly when their canonical summary encodings match.
func encode(t *testing.T, res *experiment.StreamResult) []byte {
	t.Helper()
	b, err := experiment.EncodeSummary(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ledger is a Remote's dispatch counters, read back from its registry
// by family name.
type ledger struct {
	Dispatched, RemoteDone, Failovers, Retries, Reroutes, BreakerOpens int64
}

func dispatchLedger(t *testing.T, m *obs.Registry) ledger {
	t.Helper()
	get := func(name string) int64 {
		v, ok := m.Value(name)
		if !ok {
			t.Fatalf("no metric family %s", name)
		}
		return int64(v)
	}
	return ledger{
		Dispatched:   get("koalad_dispatch_remote_total"),
		RemoteDone:   get("koalad_dispatch_remote_done_total"),
		Failovers:    get("koalad_dispatch_failover_total"),
		Retries:      get("koalad_dispatch_retries_total"),
		Reroutes:     get("koalad_dispatch_reroutes_total"),
		BreakerOpens: get("koalad_dispatch_breaker_opens_total"),
	}
}

// newWorker starts a koalad core as an HTTP worker.
func newWorker(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(server.Options{Role: "worker"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// workerRuns asks a worker how many runs it holds, via its public list
// endpoint.
func workerRuns(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return len(list.Experiments)
}

// TestLocalMatchesRunStream pins the refactor's no-op guarantee: the
// Local backend is the same engine RunStream drives.
func TestLocalMatchesRunStream(t *testing.T) {
	cfg := testConfig(7)
	direct, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := backend.Local{}.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, direct), encode(t, viaBackend)) {
		t.Fatal("backend.Local result diverges from experiment.RunStream")
	}
}

// TestRemoteSingleWorkerByteIdentical is the cross-backend equivalence
// core: a point executed on a remote worker daemon produces the exact
// summary bytes the in-process pool does, and streams per-replication
// progress through the same hooks.
func TestRemoteSingleWorkerByteIdentical(t *testing.T) {
	_, ts := newWorker(t)
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{ts.URL}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(7)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Int64
	remote, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{
		OnDone: func(experiment.Replication) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, remote)) {
		t.Fatalf("remote summary diverges from local:\nlocal:  %s\nremote: %s",
			encode(t, local), encode(t, remote))
	}
	if done.Load() != int64(cfg.Runs) {
		t.Fatalf("OnDone fired %d times, want %d", done.Load(), cfg.Runs)
	}
	if st := dispatchLedger(t, m); st.Dispatched != 1 || st.RemoteDone != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The remote result exposes the same accessors the local one does.
	if remote.Jobs() != local.Jobs() || remote.MeanExecution() != local.MeanExecution() ||
		remote.MeanResponse() != local.MeanResponse() || remote.Summary().Malleable != local.Summary().Malleable {
		t.Fatal("remote result accessors diverge from local")
	}
	rb.RefreshHealth(context.Background())
	if got := rb.HealthyWorkers(); len(got) != 1 || got[0] != ts.URL {
		t.Fatalf("healthy workers after a good dispatch = %v, want [%s]", got, ts.URL)
	}
}

// TestRemoteDedupesByFingerprint pins the store/cache dedupe: the same
// point dispatched twice simulates once — the worker answers the
// second request from its content-addressed state.
func TestRemoteDedupesByFingerprint(t *testing.T) {
	_, ts := newWorker(t)
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(3)
	first, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if n := workerRuns(t, ts); n != 1 {
		t.Fatalf("worker runs after first dispatch = %d, want 1", n)
	}
	second, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if n := workerRuns(t, ts); n != 1 {
		t.Fatalf("worker re-simulated a deduped point: %d runs", n)
	}
	if !bytes.Equal(encode(t, first), encode(t, second)) {
		t.Fatal("deduped answer diverges from the simulated one")
	}
}

// TestRemoteFailoverUnreachableWorker: a worker that cannot even be
// reached at submit time fails the point over to the local backend,
// byte-identically.
func TestRemoteFailoverUnreachableWorker(t *testing.T) {
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		// A closed port: connection refused at submit.
		Workers: []string{"http://127.0.0.1:1"},
		Log:     testLogger(t),
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("failover result diverges from local")
	}
	if st := dispatchLedger(t, m); st.Failovers != 1 || st.RemoteDone != 0 {
		t.Fatalf("stats = %+v", st)
	}
	rb.RefreshHealth(context.Background())
	if got := rb.HealthyWorkers(); len(got) != 0 {
		t.Fatalf("healthy workers with the worker unreachable = %v, want none", got)
	}
}

// TestRemoteFailoverMidStreamDeath: a worker that dies after streaming
// part of the run falls back to local execution and still produces the
// byte-identical summary. Retries are disabled to pin the bare
// failover path (the retry/reroute ladder has its own tests in
// faultinjection_test.go); replications the dead worker already
// reported fire their hooks again — documented, and harmless to the
// result.
func TestRemoteFailoverMidStreamDeath(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
		fmt.Fprintln(w, `{"type":"replication","rep":0,"seed":11,"jobs":4}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // sever the connection mid-stream
	}))
	defer dying.Close()

	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers: []string{dying.URL},
		Log:     testLogger(t),
		Retry:   backend.RetryPolicy{MaxRetries: -1},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{
		OnDone: func(experiment.Replication) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("mid-stream failover result diverges from local")
	}
	if st := dispatchLedger(t, m); st.Failovers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// One replication streamed before the death + the full local rerun.
	if done.Load() != int64(cfg.Runs)+1 {
		t.Fatalf("OnDone fired %d times, want %d", done.Load(), cfg.Runs+1)
	}
}

// TestRemoteReadsOversizedSummaryLines: the terminal summary event
// embeds every replication, so a many-replication point produces an
// NDJSON line of several MB. The reader must deliver it whole — a
// fixed line cap would discard a fully simulated result and re-run
// the point locally.
func TestRemoteReadsOversizedSummaryLines(t *testing.T) {
	cfg := testConfig(7)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := local.Summary()
	// Inflate the replication list far beyond the old 1 MiB scanner
	// cap (~2k reps ≈ 0.3 MB each... pad with copies of rep 0).
	pad := sum.Replications[0]
	for len(sum.Replications) < 40000 {
		sum.Replications = append(sum.Replications, pad)
	}
	sumJSON, err := experiment.EncodeSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(sumJSON) < 4<<20 {
		t.Fatalf("test summary too small to prove the point: %d bytes", len(sumJSON))
	}
	fat := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
		fmt.Fprintf(w, `{"type":"summary","id":"exp-1","summary":%s}`+"\n", sumJSON)
	}))
	defer fat.Close()

	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{fat.URL}, Log: testLogger(t), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if st := dispatchLedger(t, m); st.Failovers != 0 || st.RemoteDone != 1 {
		t.Fatalf("oversized summary caused a failover: %+v", st)
	}
	if len(res.Replications) != 40000 {
		t.Fatalf("replications = %d, want the inflated 40000", len(res.Replications))
	}
	got, err := experiment.EncodeSummary(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sumJSON) {
		t.Fatal("oversized summary did not round-trip byte-identically")
	}
}

// TestRemoteSweepWithFailoverRace is the race-enabled dispatcher test:
// a sweep of points dispatched concurrently through one Remote whose
// worker set mixes a live daemon and a dead address. Every point —
// whether it executed on the worker or failed over — must match the
// all-local sweep byte for byte, in order.
func TestRemoteSweepWithFailoverRace(t *testing.T) {
	_, live := newWorker(t)
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers: []string{live.URL, "http://127.0.0.1:1"},
		Log:     testLogger(t),
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}

	combos := []experiment.Combo{
		{Policy: "FPSMA", Label: "FPSMA/bk", Workload: func(seed uint64) workload.Spec { return testConfig(seed).Workload }},
		{Policy: "EGS", Label: "EGS/bk", Workload: func(seed uint64) workload.Spec { return testConfig(seed).Workload }},
	}
	base := testConfig(5)

	serial, err := experiment.RunSetStream(context.Background(), "PRA", combos, base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := runPoints(t, rb, combos, base)
	if len(sharded) != len(serial) {
		t.Fatalf("results = %d, want %d", len(sharded), len(serial))
	}
	for i := range serial {
		if !bytes.Equal(encode(t, serial[i]), encode(t, sharded[i])) {
			t.Fatalf("combo %d diverges across backends", i)
		}
	}
	st := dispatchLedger(t, m)
	if st.Dispatched != int64(len(combos)) || st.RemoteDone+st.Failovers != st.Dispatched {
		t.Fatalf("stats = %+v", st)
	}
}

// TestNewRemoteValidation pins fail-fast URL validation: malformed
// worker lists die at construction, not at first dispatch.
func TestNewRemoteValidation(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{""},
		{"   "},
		{"127.0.0.1:8081"},           // no scheme
		{"ftp://host:1"},             // wrong scheme
		{"http://"},                  // no host
		{"http://host:1/api"},        // path
		{"http://host:1?x=1"},        // query
		{"http://user:pw@host:1"},    // userinfo
		{"http://good:1", "::bad::"}, // one bad entry poisons the list
	} {
		if _, err := backend.NewRemote(backend.RemoteOptions{Workers: bad}); err == nil {
			t.Errorf("NewRemote(%q) accepted a malformed worker list", bad)
		}
	}
	rb, err := backend.NewRemote(backend.RemoteOptions{Workers: []string{" http://a:1 ", "https://b", "http://c:9/"}})
	if err != nil {
		t.Fatalf("NewRemote rejected valid workers: %v", err)
	}
	want := []string{"http://a:1", "https://b", "http://c:9"}
	got := rb.Workers()
	if len(got) != len(want) {
		t.Fatalf("workers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("workers = %v, want %v", got, want)
		}
	}
}
