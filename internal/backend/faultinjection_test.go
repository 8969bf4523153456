package backend_test

// End-to-end fault-schedule equivalence tests: the resilience layer's
// contract is that every sweep summary stays byte-identical to the
// clean local run under ANY scripted fault schedule — faults cost
// retries, reroutes or a local failover, never correctness. The
// schedules here are driven through internal/faults' in-process
// RoundTripper (and handcrafted torn-NDJSON workers), so every error
// shape the classifier handles is manufactured deterministically.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/workload"
)

// seedForShard finds a test-config seed whose fingerprint shards to
// `owner` with n workers — so a test can aim points at a specific
// (faulty) worker deterministically.
func seedForShard(t *testing.T, n, owner int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		hash, err := experiment.Fingerprint(testConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if backend.ShardIndex(hash, n) == owner {
			return seed
		}
	}
	t.Fatal("no seed under 500 shards to the wanted owner")
	return 0
}

// executeOnly matches only worker dispatches, so health probes sharing
// the faulted client never consume schedule steps.
func executeOnly(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, backend.ExecutePath) }

// faultedRemote builds a Remote whose dispatches run through a
// scripted fault schedule against the given workers.
func faultedRemote(t *testing.T, sched *faults.Schedule, opts backend.RemoteOptions) *backend.Remote {
	t.Helper()
	opts.Client = &http.Client{Transport: &faults.RoundTripper{Schedule: sched, Match: executeOnly}}
	if opts.Log == nil {
		opts.Log = testLogger(t)
	}
	rb, err := backend.NewRemote(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rb.Close)
	return rb
}

// TestRemoteRetriesThroughFaultSchedule: a point whose first two
// dispatch attempts die (mid-stream reset, then a 503 burst of one)
// completes on the third attempt against the same worker —
// byte-identical, no failover, the retry counters telling the story.
func TestRemoteRetriesThroughFaultSchedule(t *testing.T) {
	_, ts := newWorker(t)
	sched := faults.NewSchedule(
		faults.Fault{Kind: faults.Reset, After: 200},
		faults.Fault{Kind: faults.Status, Code: 503},
	)
	m := obs.NewRegistry()
	rb := faultedRemote(t, sched, backend.RemoteOptions{
		Workers: []string{ts.URL},
		Retry:   backend.RetryPolicy{MaxRetries: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Metrics: m,
	})

	cfg := testConfig(7)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("summary after scripted reset+503 diverges from clean local run")
	}
	st := dispatchLedger(t, m)
	if st.Retries != 2 || st.RemoteDone != 1 || st.Failovers != 0 || st.Reroutes != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 1 remote done, 0 failovers", st)
	}
	if sched.Remaining() != 0 {
		t.Fatalf("schedule steps left unfired: %d", sched.Remaining())
	}
}

// TestRemoteDropThenRecover: connection refused at submit (the drop
// fault) is retryable; the point lands on the same worker next attempt.
func TestRemoteDropThenRecover(t *testing.T) {
	_, ts := newWorker(t)
	sched := faults.NewSchedule(faults.Fault{Kind: faults.Drop})
	m := obs.NewRegistry()
	rb := faultedRemote(t, sched, backend.RemoteOptions{
		Workers: []string{ts.URL},
		Retry:   backend.RetryPolicy{MaxRetries: 1, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Metrics: m,
	})
	cfg := testConfig(3)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("summary after scripted drop diverges from clean local run")
	}
	if st := dispatchLedger(t, m); st.Retries != 1 || st.RemoteDone != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// tornWorker builds a fake worker whose NDJSON response is torn in a
// scripted way; hits counts dispatch attempts.
func tornWorker(t *testing.T, hits *atomic.Int64, write func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, backend.ExecutePath) {
			http.NotFound(w, r)
			return
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		write(w)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestTornNDJSONRetryableEquivalence is the satellite-task matrix:
// every way a worker stream can tear — a partial JSON line, a clean
// EOF with no terminal summary, a reset mid-summary — must classify as
// retryable (the stats show the retry happened) and end byte-identical
// to the clean local run via local failover.
func TestTornNDJSONRetryableEquivalence(t *testing.T) {
	cfg := testConfig(11)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := experiment.EncodeSummary(local.Summary())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		write func(w http.ResponseWriter)
	}{
		{"partial JSON line", func(w http.ResponseWriter) {
			fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
			fmt.Fprint(w, `{"type":"replication","rep":0,"se`) // torn mid-line, clean close
		}},
		{"missing terminal summary", func(w http.ResponseWriter) {
			fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
			fmt.Fprintln(w, `{"type":"replication","rep":0,"seed":11,"jobs":4}`)
			fmt.Fprintln(w, `{"type":"replication","rep":1,"seed":12,"jobs":4}`)
			// ...and the stream just ends: the worker died between its
			// last replication and the summary.
		}},
		{"reset mid-summary", func(w http.ResponseWriter) {
			fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
			fmt.Fprintf(w, `{"type":"summary","id":"exp-1","summary":%s`, sum[:len(sum)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // sever the connection mid-summary
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			ts := tornWorker(t, &hits, tc.write)
			m := obs.NewRegistry()
			rb, err := backend.NewRemote(backend.RemoteOptions{
				Workers: []string{ts.URL},
				Log:     testLogger(t),
				Retry:   backend.RetryPolicy{MaxRetries: 1, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
				Metrics: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rb.Close()
			res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
			if err != nil {
				t.Fatalf("torn stream (%s) surfaced instead of failing over: %v", tc.name, err)
			}
			if !bytes.Equal(encode(t, local), encode(t, res)) {
				t.Fatalf("summary after torn stream (%s) diverges from clean local run", tc.name)
			}
			st := dispatchLedger(t, m)
			// The tear was classified retryable (it was retried on the
			// worker — 2 hits), then the point failed over locally.
			if hits.Load() != 2 {
				t.Fatalf("worker attempts = %d, want 2 (initial + retry)", hits.Load())
			}
			if st.Retries != 1 || st.Failovers != 1 || st.RemoteDone != 0 {
				t.Fatalf("stats = %+v, want 1 retry then 1 failover", st)
			}
		})
	}
}

// TestTornNDJSONReroutesBeforeLocal: with a healthy second worker on
// the ring, a torn stream reroutes there instead of burning a local
// re-simulation — and the coordinator still gets the exact bytes.
func TestTornNDJSONReroutesBeforeLocal(t *testing.T) {
	var hits atomic.Int64
	torn := tornWorker(t, &hits, func(w http.ResponseWriter) {
		fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
		fmt.Fprint(w, `{"type":"rep`) // always torn
	})
	_, live := newWorker(t)

	// Order workers so the torn one owns the point's shard.
	seed := seedForShard(t, 2, 0)
	workers := []string{torn.URL, live.URL}
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers: workers,
		Log:     testLogger(t),
		Retry:   backend.RetryPolicy{MaxRetries: 1, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	cfg := testConfig(seed)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("rerouted summary diverges from clean local run")
	}
	st := dispatchLedger(t, m)
	if st.RemoteDone != 1 || st.Failovers != 0 || st.Reroutes != 1 {
		t.Fatalf("stats = %+v, want reroute to the healthy worker, no local failover", st)
	}
	if hits.Load() != 2 {
		t.Fatalf("torn worker attempts = %d, want 2 (initial + retry) before reroute", hits.Load())
	}
}

// TestBreakerSkipsBrokenWorker: after the breaker opens on a broken
// worker, later points that shard to it skip straight to the next
// healthy worker — the dead worker stops seeing dispatches (and stops
// eating retry budget) until its cooldown probe.
func TestBreakerSkipsBrokenWorker(t *testing.T) {
	var hits atomic.Int64
	broken := tornWorker(t, &hits, func(w http.ResponseWriter) {
		panic(http.ErrAbortHandler)
	})
	_, live := newWorker(t)

	seed := seedForShard(t, 2, 0)
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers:          []string{broken.URL, live.URL},
		Log:              testLogger(t),
		Retry:            backend.RetryPolicy{MaxRetries: -1},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // no probe within this test
		Metrics:          m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	// First point: attempt on the broken owner, breaker opens, reroute.
	cfg := testConfig(seed)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("first point diverges from clean local run")
	}
	if hits.Load() != 1 {
		t.Fatalf("broken worker attempts after first point = %d, want 1", hits.Load())
	}

	// Second point to the same shard: the open breaker short-circuits —
	// the broken worker is never contacted again.
	var seed2 uint64
	for s := seed + 1; ; s++ {
		hash, err := experiment.Fingerprint(testConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		if backend.ShardIndex(hash, 2) == 0 {
			seed2 = s
			break
		}
	}
	cfg2 := testConfig(seed2)
	local2, err := experiment.RunStream(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := rb.RunPoint(context.Background(), cfg2, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local2), encode(t, res2)) {
		t.Fatal("second point diverges from clean local run")
	}
	if hits.Load() != 1 {
		t.Fatalf("circuit-broken worker was contacted again: %d attempts", hits.Load())
	}
	st := dispatchLedger(t, m)
	if st.BreakerOpens != 1 || st.RemoteDone != 2 || st.Failovers != 0 || st.Reroutes != 2 {
		t.Fatalf("stats = %+v, want 1 breaker open, 2 remote done via reroute", st)
	}
}

// TestRingDropsDrainingWorker: a worker in Server.Shutdown answers
// /healthz with 503/"draining"; one health refresh later the ring has
// ejected it and points it owned route to the remaining worker without
// a single bounced dispatch.
func TestRingDropsDrainingWorker(t *testing.T) {
	draining, drainingTS := newWorker(t)
	_, liveTS := newWorker(t)

	seed := seedForShard(t, 2, 0)
	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers: []string{drainingTS.URL, liveTS.URL},
		Log:     testLogger(t),
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	// Drain the shard owner, then refresh ring health.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := draining.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rb.RefreshHealth(context.Background())
	healthy := rb.HealthyWorkers()
	if len(healthy) != 1 || healthy[0] != liveTS.URL {
		t.Fatalf("healthy workers after drain = %v, want just the live one", healthy)
	}

	cfg := testConfig(seed)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("summary routed around the draining worker diverges from clean local run")
	}
	st := dispatchLedger(t, m)
	// The draining worker was gated out of the candidate ring before
	// dispatch: no retries were burned discovering it, no bounced
	// attempt to count as a reroute — the point's first (and only)
	// dispatch went to the live worker.
	if st.RemoteDone != 1 || st.Retries != 0 || st.Failovers != 0 || st.Reroutes != 0 {
		t.Fatalf("stats = %+v, want a clean first-try dispatch to the live worker", st)
	}
	if n := workerRuns(t, liveTS); n != 1 {
		t.Fatalf("live worker runs = %d, want 1", n)
	}
}

// TestRingReadmitsRecoveredWorker: ring membership is a round trip —
// a worker that stops answering "ok" is ejected, and re-admitted the
// probe after it recovers.
func TestRingReadmitsRecoveredWorker(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if healthy.Load() {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	}))
	defer flappy.Close()
	_, liveTS := newWorker(t)

	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers: []string{flappy.URL, liveTS.URL},
		Log:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	rb.RefreshHealth(context.Background())
	if got := rb.HealthyWorkers(); len(got) != 2 {
		t.Fatalf("healthy workers while ok = %v, want both", got)
	}
	healthy.Store(false)
	rb.RefreshHealth(context.Background())
	if got := rb.HealthyWorkers(); len(got) != 1 || got[0] != liveTS.URL {
		t.Fatalf("healthy workers while draining = %v, want just the live one", got)
	}
	healthy.Store(true)
	rb.RefreshHealth(context.Background())
	if got := rb.HealthyWorkers(); len(got) != 2 {
		t.Fatalf("healthy workers after recovery = %v, want both re-admitted", got)
	}
}

// TestIdleWatchdogDetectsStalledWorker: a worker that accepts the
// dispatch, streams one event and then hangs (no death, no progress)
// is cut by the progress-idle watchdog and the point completes
// elsewhere — byte-identical, bounded by the idle timeout rather than
// forever.
func TestIdleWatchdogDetectsStalledWorker(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"type":"accepted","id":"exp-1"}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // hang until the coordinator gives up
	}))
	defer stalled.Close()

	m := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers:          []string{stalled.URL},
		Log:              testLogger(t),
		Retry:            backend.RetryPolicy{MaxRetries: -1},
		IdleEventTimeout: 200 * time.Millisecond,
		Metrics:          m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	cfg := testConfig(11)
	local, err := experiment.RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := rb.RunPoint(context.Background(), cfg, experiment.StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, local), encode(t, res)) {
		t.Fatal("summary after stalled worker diverges from clean local run")
	}
	if st := dispatchLedger(t, m); st.Failovers != 1 {
		t.Fatalf("stats = %+v, want 1 failover", st)
	}
	// The stall was detected by the watchdog, not a multi-minute
	// transport deadline (generous bound: CI machines are slow).
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("stalled worker took %s to detect", elapsed)
	}
}

// TestSweepFaultScheduleEquivalence is the umbrella: a whole sweep
// dispatched through a mixed fault schedule — drop, reset, 5xx burst,
// truncation — matches the clean serial sweep byte for byte, point by
// point, and every dispatched point is accounted for as remote-done or
// failed-over.
func TestSweepFaultScheduleEquivalence(t *testing.T) {
	_, ts := newWorker(t)
	sched := faults.NewSchedule(
		faults.Fault{Kind: faults.Drop},
		faults.Fault{Kind: faults.Reset, After: 300},
		faults.Fault{Kind: faults.Status, Code: 503},
		faults.Fault{Kind: faults.Status, Code: 503},
		faults.Fault{Kind: faults.Truncate, After: 150},
	)
	m := obs.NewRegistry()
	rb := faultedRemote(t, sched, backend.RemoteOptions{
		Workers: []string{ts.URL},
		Retry:   backend.RetryPolicy{MaxRetries: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Metrics: m,
	})

	combos := []experiment.Combo{
		{Policy: "FPSMA", Label: "FPSMA/bk", Workload: func(seed uint64) workload.Spec { return testConfig(seed).Workload }},
		{Policy: "EGS", Label: "EGS/bk", Workload: func(seed uint64) workload.Spec { return testConfig(seed).Workload }},
		{Policy: "EQUI", Label: "EQUI/bk", Workload: func(seed uint64) workload.Spec { return testConfig(seed).Workload }},
	}
	base := testConfig(5)

	serial, err := experiment.RunSetStream(context.Background(), "PRA", combos, base)
	if err != nil {
		t.Fatal(err)
	}
	faulted := runPoints(t, rb, combos, base)
	if len(faulted) != len(serial) {
		t.Fatalf("results = %d, want %d", len(faulted), len(serial))
	}
	for i := range serial {
		if !bytes.Equal(encode(t, serial[i]), encode(t, faulted[i])) {
			t.Fatalf("combo %d diverges from the clean serial sweep under the fault schedule", i)
		}
	}
	st := dispatchLedger(t, m)
	if st.Dispatched != int64(len(combos)) || st.RemoteDone+st.Failovers != st.Dispatched {
		t.Fatalf("stats don't conserve points: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatal("the fault schedule fired but no retry was recorded")
	}
}
