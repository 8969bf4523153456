package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// newStoreServer assembles a durable server over dir: open the store,
// recover, serve. The store and the server share one registry, as in
// cmd/koalad, so the server's /metrics carries the store's families.
// Callers stop it with closeStoreServer (not t.Cleanup) so tests can
// restart "the daemon" on the same directory mid-test.
func newStoreServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	st, err := store.Open(dir, store.Options{Metrics: opts.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	s := New(opts)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, st
}

func closeStoreServer(t *testing.T, s *Server, ts *httptest.Server, st *store.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// tinyHashAndSpec resolves tinyConfig exactly like handleSubmit does:
// its canonical fingerprint and its journaled wire form.
func tinyHashAndSpec(t *testing.T) (string, json.RawMessage) {
	t.Helper()
	spec, err := experiment.DecodeConfigSpec(strings.NewReader(tinyConfig))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := experiment.Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return hash, b
}

// TestRestartDurability is the tentpole's acceptance test: submit →
// complete → restart the server on the same data dir → the identical
// re-POST is answered from the store byte-identically, with zero
// re-simulation.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, st1 := newStoreServer(t, dir, Options{})

	sr, code := postConfig(t, ts1, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	readEvents(t, ts1, sr.ID)
	before := mustGet(t, ts1, "/v1/experiments/"+sr.ID)
	if metric(t, s1, "koalad_store_misses_total") != 1 {
		t.Fatalf("store misses = %g, want 1", metric(t, s1, "koalad_store_misses_total"))
	}
	closeStoreServer(t, s1, ts1, st1)

	// "Restart": a fresh server over the same directory.
	s2, ts2, st2 := newStoreServer(t, dir, Options{})
	defer closeStoreServer(t, s2, ts2, st2)
	if got := metric(t, s2, "koalad_store_restored_total"); got != 1 {
		t.Fatalf("restored = %g, want 1", got)
	}

	sr2, code2 := postConfig(t, ts2, tinyConfig)
	if code2 != http.StatusOK {
		t.Fatalf("re-POST after restart = %d, want 200", code2)
	}
	if !sr2.Cached || sr2.ID != sr.ID || sr2.Hash != sr.Hash {
		t.Fatalf("re-POST after restart = %+v, want cached %s", sr2, sr.ID)
	}
	if metric(t, s2, "koalad_replications_total") != 0 {
		t.Fatal("re-POST after restart re-simulated replications")
	}
	// The result round-trips the disk byte-identically. Compare the
	// deterministic fields — the GET body also carries provenance
	// (source flips live → store) and lifecycle timings (deliberately
	// not durable), which legitimately differ across a restart.
	after := mustGet(t, ts2, "/v1/experiments/"+sr.ID)
	type getWire struct {
		ID      string          `json:"id"`
		Hash    string          `json:"hash"`
		Status  Status          `json:"status"`
		Source  string          `json:"source"`
		Summary json.RawMessage `json:"summary"`
	}
	var bw, aw getWire
	if err := json.Unmarshal(before, &bw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &aw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bw.Summary, aw.Summary) {
		t.Fatalf("summary changed across restart:\nbefore: %s\nafter:  %s", bw.Summary, aw.Summary)
	}
	if aw.ID != bw.ID || aw.Hash != bw.Hash || aw.Status != StatusDone {
		t.Fatalf("restored run identity = %+v, want %+v", aw, bw)
	}
	if bw.Source != SourceLive || aw.Source != SourceStore {
		t.Fatalf("source before/after = %q/%q, want live/store", bw.Source, aw.Source)
	}
	// The restored run replays a coherent event log.
	events := readEvents(t, ts2, sr.ID)
	if len(events) != 2 || events[0]["type"] != "accepted" || events[1]["type"] != "summary" {
		t.Fatalf("restored event log = %+v", events)
	}
	// The list endpoint attributes it to the store.
	var list listResponse
	if err := json.Unmarshal(mustGet(t, ts2, "/v1/experiments"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) != 1 || list.Experiments[0].Source != SourceStore ||
		list.Experiments[0].Status != StatusDone || list.Experiments[0].ID != sr.ID {
		t.Fatalf("list after restart = %+v", list.Experiments)
	}
	// And /metrics exposes the durability counters.
	text := string(mustGet(t, ts2, "/metrics"))
	for _, want := range []string{
		"koalad_store_entries 1",
		"koalad_store_hits_total 1",
		"koalad_store_misses_total 0",
		"koalad_store_restored_total 1",
		"koalad_store_replayed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRecoveryReenqueuesInFlight simulates a crash while a run was
// simulating: the journal holds its submitted record, plus the
// `started` line daemons used to append when a run took a slot, with
// no terminal record, and the store has no entry. Recovery must ignore
// the started line, re-create the run under its original ID and
// execute it to completion.
func TestRecoveryReenqueuesInFlight(t *testing.T) {
	dir := t.TempDir()
	hash, spec := tinyHashAndSpec(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := st.Journal()
	if err := j.Append(store.Record{Op: store.OpSubmitted, ID: "exp-1", Hash: hash, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(store.Record{Op: "started", ID: "exp-1", Hash: hash}); err != nil {
		t.Fatal(err)
	}
	st.Close() // the crash

	s, ts, st2 := newStoreServer(t, dir, Options{})
	defer closeStoreServer(t, s, ts, st2)
	if got := metric(t, s, "koalad_store_replayed_total"); got != 1 {
		t.Fatalf("replayed = %g, want 1", got)
	}
	run := s.registry.Get("exp-1")
	if run == nil || run.Source != SourceLive {
		t.Fatalf("re-enqueued run = %+v", run)
	}
	events := readEvents(t, ts, "exp-1")
	if events[len(events)-1]["type"] != "summary" {
		t.Fatalf("re-enqueued run terminal event = %v", events[len(events)-1])
	}
	if metric(t, s, "koalad_replications_total") == 0 {
		t.Fatal("re-enqueued run did not actually simulate")
	}
	// Its completion was written through: the store now holds the
	// result, and a fresh POST of the identical config is a cache hit.
	if st2.Get(hash) == nil {
		t.Fatal("re-enqueued run's result not persisted")
	}
	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusOK || !sr.Cached || sr.ID != "exp-1" {
		t.Fatalf("POST after replay = %+v (%d)", sr, code)
	}
	// Recovery compacted the journal down to the one in-flight run
	// before its execution appended completed. The completed record
	// follows the terminal event, so wait for the run's goroutine to
	// return (nothing else is admitted here).
	s.wg.Wait()
	recs, err := st2.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, r := range recs {
		ops = append(ops, string(r.Op))
	}
	if strings.Join(ops, ",") != "submitted,completed" {
		t.Fatalf("journal after replayed run = %v", ops)
	}
}

// TestRunsTotalCountsRecoveredRuns pins the run ledger across a
// restart: a run that recovery re-enqueues is admitted like a POST
// miss, so once it completes every admitted run is accounted for as
// done, failed, queued or active. koalad_cache_misses_total stays a
// count of POSTs only.
func TestRunsTotalCountsRecoveredRuns(t *testing.T) {
	dir := t.TempDir()
	hash, spec := tinyHashAndSpec(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal().Append(store.Record{Op: store.OpSubmitted, ID: "exp-1", Hash: hash, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	st.Close() // the crash

	s, ts, st2 := newStoreServer(t, dir, Options{})
	defer closeStoreServer(t, s, ts, st2)
	if events := readEvents(t, ts, "exp-1"); events[len(events)-1]["type"] != "summary" {
		t.Fatalf("recovered run terminal event = %v", events[len(events)-1])
	}
	total := metric(t, s, "koalad_runs_total")
	accounted := metric(t, s, "koalad_runs_done_total") + metric(t, s, "koalad_runs_failed_total") +
		metric(t, s, "koalad_queue_depth") + metric(t, s, "koalad_active_runs")
	if total != 1 || total != accounted {
		t.Fatalf("runs_total = %g, want 1 = done + failed + queued + active = %g", total, accounted)
	}
	if misses := metric(t, s, "koalad_cache_misses_total"); misses != 0 {
		t.Fatalf("cache misses = %g after a replay with no POST, want 0", misses)
	}
}

// TestRecoveryResolvesStoredButUnjournaledRun simulates the other
// crash window — between the store write and the journal's completed
// append. The journal says in-flight, the store has the result; the
// store must win and nothing re-runs.
func TestRecoveryResolvesStoredButUnjournaledRun(t *testing.T) {
	dir := t.TempDir()

	// A first life produces a durable result...
	s1, ts1, st1 := newStoreServer(t, dir, Options{})
	sr, _ := postConfig(t, ts1, tinyConfig)
	readEvents(t, ts1, sr.ID)
	closeStoreServer(t, s1, ts1, st1)

	// ...then the crash: re-open the journal and make the run look
	// in-flight again (as if the completed append never hit the disk).
	hash, spec := tinyHashAndSpec(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal().Compact(nil); err != nil {
		t.Fatal(err)
	}
	j := st.Journal()
	if err := j.Append(store.Record{Op: store.OpSubmitted, ID: sr.ID, Hash: hash, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	s2, ts2, st2 := newStoreServer(t, dir, Options{})
	defer closeStoreServer(t, s2, ts2, st2)
	if metric(t, s2, "koalad_store_restored_total") != 1 || metric(t, s2, "koalad_store_replayed_total") != 0 {
		t.Fatalf("restored/replayed = %g/%g, want 1/0",
			metric(t, s2, "koalad_store_restored_total"), metric(t, s2, "koalad_store_replayed_total"))
	}
	if metric(t, s2, "koalad_replications_total") != 0 {
		t.Fatal("stored run re-simulated")
	}
	sr2, code := postConfig(t, ts2, tinyConfig)
	if code != http.StatusOK || !sr2.Cached {
		t.Fatalf("POST after resolve = %+v (%d)", sr2, code)
	}
}

// TestRecoverySkipsFailedRuns: a journaled terminal failure is not
// re-enqueued (failures are retried by clients, not by restarts).
func TestRecoverySkipsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	hash, spec := tinyHashAndSpec(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := st.Journal()
	for _, rec := range []store.Record{
		{Op: store.OpSubmitted, ID: "exp-1", Hash: hash, Spec: spec},
		{Op: store.OpFailed, ID: "exp-1", Hash: hash, Error: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	s, ts, st2 := newStoreServer(t, dir, Options{})
	defer closeStoreServer(t, s, ts, st2)
	if metric(t, s, "koalad_store_replayed_total") != 0 || s.registry.Len() != 0 {
		t.Fatalf("failed run resurrected: replayed=%g runs=%d", metric(t, s, "koalad_store_replayed_total"), s.registry.Len())
	}
}

// TestRecoveryDropsUnrecoverableRun: an in-flight journal run whose
// submitted record lacks a spec (compaction raced its admission, or a
// foreign writer) is dropped with a count, not fatal.
func TestRecoveryDropsUnrecoverableRun(t *testing.T) {
	dir := t.TempDir()
	hash, _ := tinyHashAndSpec(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal().Append(store.Record{Op: store.OpSubmitted, ID: "exp-1", Hash: hash}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st2})
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Dropped != 1 || rs.Reenqueued != 0 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	st2.Close()
}

// TestRecoveryRespectsRetentionBound: a store larger than MaxRetained
// only materializes its newest entries at startup — the older ones
// stay on disk (still adoptable on POST) instead of being restored and
// immediately evicted.
func TestRecoveryRespectsRetentionBound(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := experiment.EncodeSummary(experiment.StreamSummary{Name: "x", Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 1; i <= 3; i++ { // exp-1 oldest ... exp-3 newest
		h := fmt.Sprintf("%064x", i)
		if err := st.Put(store.Entry{Hash: h, ID: fmt.Sprintf("exp-%d", i), Summary: sum}); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, "results", h+".json"), now, now.Add(-time.Duration(4-i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxRetained: 1, Store: st2})
	rs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Restored != 1 {
		t.Fatalf("restored = %d, want only the newest", rs.Restored)
	}
	if s.registry.Get("exp-3") == nil || s.registry.Get("exp-1") != nil || s.registry.Len() != 1 {
		t.Fatalf("registry after bounded recovery has %d runs", s.registry.Len())
	}
	// The unrestored entries are still on disk for lazy adoption.
	if st2.Get(fmt.Sprintf("%064x", 1)) == nil {
		t.Fatal("older entry removed from disk by recovery")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	st2.Close()
}

// TestStoreFallbackAfterRetentionEviction: a result evicted from memory
// by the retention bound is still on disk, so its re-POST is a store
// hit, not a re-simulation.
func TestStoreFallbackAfterRetentionEviction(t *testing.T) {
	dir := t.TempDir()
	s, ts, st := newStoreServer(t, dir, Options{MaxRetained: 1})
	defer closeStoreServer(t, s, ts, st)

	mk := func(seed int) string {
		return strings.Replace(tinyConfig, `"seed": 1`, `"seed": `+string(rune('0'+seed)), 1)
	}
	sr1, _ := postConfig(t, ts, mk(1))
	readEvents(t, ts, sr1.ID)
	sr2, _ := postConfig(t, ts, mk(2))
	readEvents(t, ts, sr2.ID)

	// Retention is settled before the terminal event goes out: once run
	// 2's stream has ended, the bound of 1 has already evicted run 1.
	if s.registry.Get(sr1.ID) != nil {
		t.Fatal("run 1 not evicted")
	}
	repsBefore := metric(t, s, "koalad_replications_total")
	sr3, code := postConfig(t, ts, mk(1))
	if code != http.StatusOK || !sr3.Cached {
		t.Fatalf("re-POST of evicted config = %+v (%d), want store hit", sr3, code)
	}
	if sr3.Hash != sr1.Hash {
		t.Fatalf("hash changed: %s vs %s", sr3.Hash, sr1.Hash)
	}
	if metric(t, s, "koalad_replications_total") != repsBefore {
		t.Fatal("store hit re-simulated")
	}
	if metric(t, s, "koalad_store_hits_total") != 1 {
		t.Fatalf("store hits = %g, want 1", metric(t, s, "koalad_store_hits_total"))
	}
	if run := s.registry.Get(sr3.ID); run == nil || run.Source != SourceStore {
		t.Fatalf("adopted run = %+v", run)
	}
}

// TestJournalCompactionBounded: a low compaction threshold keeps the
// journal from growing with submission history.
func TestJournalCompactionBounded(t *testing.T) {
	dir := t.TempDir()
	s, ts, st := newStoreServer(t, dir, Options{JournalCompactEvery: 4})
	defer closeStoreServer(t, s, ts, st)
	recovered := metric(t, s, "koalad_journal_compactions_total") // Recover compacts once at start

	for seed := 1; seed <= 3; seed++ {
		body := strings.Replace(tinyConfig, `"seed": 1`, `"seed": `+string(rune('0'+seed)), 1)
		sr, code := postConfig(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("POST seed %d = %d", seed, code)
		}
		readEvents(t, ts, sr.ID)
	}
	// The terminal journal record, and the compaction it may trigger,
	// follow the terminal event: wait for the runs' goroutines.
	s.wg.Wait()
	if metric(t, s, "koalad_journal_compactions_total") == recovered {
		t.Fatal("journal never compacted")
	}
	// 3 completed runs ~ 9 records without compaction; the bound holds
	// it near the threshold.
	if got := st.Journal().Records(); got > 6 {
		t.Fatalf("journal records = %d, want compacted (<= 6)", got)
	}
}

// TestJournalCompactionOnFailures: failed runs also trigger compaction
// — a daemon whose workload keeps failing must not grow its journal
// forever just because nothing ever completes.
func TestJournalCompactionOnFailures(t *testing.T) {
	dir := t.TempDir()
	s, ts, st := newStoreServer(t, dir, Options{JournalCompactEvery: 4})
	defer closeStoreServer(t, s, ts, st)
	recovered := metric(t, s, "koalad_journal_compactions_total") // Recover compacts once at start

	// Decodes fine, fails at run time (grid too small for the initial
	// size); each attempt is a fresh run since failures leave the cache.
	bad := `{
		"workload": {"name":"toobig","jobs":2,"inter_arrival":30,"malleable_fraction":1,"initial_size":64,"rigid_size":2},
		"grid": {"clusters":[{"name":"A","nodes":4}]},
		"no_background": true,
		"runs": 1
	}`
	for i := 0; i < 3; i++ {
		sr, code := postConfig(t, ts, bad)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d = %d", i, code)
		}
		readEvents(t, ts, sr.ID)
	}
	s.wg.Wait() // the failed records follow the terminal events
	if metric(t, s, "koalad_runs_failed_total") != 3 {
		t.Fatalf("failed runs = %g, want 3", metric(t, s, "koalad_runs_failed_total"))
	}
	if metric(t, s, "koalad_journal_compactions_total") == recovered {
		t.Fatal("journal never compacted under an all-failure workload")
	}
	if got := st.Journal().Records(); got > 6 {
		t.Fatalf("journal records = %d, want compacted (<= 6)", got)
	}
}
