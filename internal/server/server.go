// Package server implements koalad, the long-running experiment
// service: clients POST an experiment.Config in its JSON form to
// /v1/experiments, the server validates and admits it onto a bounded
// run pool, streams per-replication progress as NDJSON from
// /v1/experiments/{id}/events, and indexes every completed summary in
// a content-addressed cache keyed by the config's canonical
// fingerprint — an identical re-submission is answered from the cache
// without re-simulating. Execution uses the streaming aggregation path
// (experiment.RunStream), so the daemon's memory per run is bounded by
// the aggregate sketches, not the job count.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Options tune the daemon.
type Options struct {
	// Parallelism is the per-run simulation parallelism handed to
	// experiment configs that do not set their own (0 = one worker per
	// CPU, the pool default).
	Parallelism int
	// MaxConcurrent bounds how many runs execute at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds how many admitted runs may wait for a slot;
	// beyond it POST returns 429 (default 8).
	QueueDepth int
	// MaxRetained bounds how many terminal runs (and their cached
	// summaries and event logs) stay resident; beyond it the oldest are
	// forgotten, so a long-lived daemon's memory does not grow with its
	// submission history (default 256).
	MaxRetained int
	// Version is reported in /healthz and the startup banner.
	Version string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// daemon's mux.
	EnablePprof bool
	// Store, when non-nil, makes the daemon durable: completed summaries
	// are written through to the on-disk result store, run transitions
	// are journaled, and Recover() replays both at startup. Nil keeps
	// the original fully in-memory behavior.
	Store *store.Store
	// JournalCompactEvery triggers a journal compaction (rewriting it to
	// just the in-flight runs' records) once the journal holds at least
	// this many records (default 256).
	JournalCompactEvery int
	// Backend executes admitted runs: nil means in-process
	// (backend.Local); a backend.Remote turns this daemon into a
	// coordinator that shards runs across worker daemons. Runs
	// admitted through the worker execute endpoint always run
	// in-process regardless.
	Backend backend.Backend
	// Role labels the daemon's place in a multi-node topology
	// ("coordinator", "worker"); reported on /healthz.
	Role string
	// Log receives one structured record per lifecycle transition
	// (optional; nil discards).
	Log *slog.Logger
	// Metrics is the registry every family the daemon exposes lands on;
	// share one instance with the store and backend so /metrics scrapes
	// the whole process (but not with another server: their families
	// would merge). Nil creates a private registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxRetained <= 0 {
		o.MaxRetained = 256
	}
	if o.JournalCompactEvery <= 0 {
		o.JournalCompactEvery = 256
	}
	if o.Log == nil {
		o.Log = obs.NopLogger()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Server is the koalad core, embeddable in tests via Handler().
type Server struct {
	opts     Options
	log      *slog.Logger
	metrics  *obs.Registry
	registry *Registry
	cache    *Cache
	store    *store.Store // nil = in-memory only

	// The daemon's metric families, registered once by New.
	queueWait           *obs.Histogram // admission -> concurrency slot
	runDuration         *obs.Histogram // slot -> terminal event
	followerStall       *obs.Histogram // single event write on a follower stream
	queued              *obs.Gauge     // admitted, waiting for a slot
	activeRuns          *obs.Gauge
	activeSims          *obs.Gauge // replications currently simulating
	followers           *obs.Gauge // NDJSON streams currently attached
	repsDone            *obs.Counter
	runsAdmitted        *obs.Counter // runs entering the queue: admission misses and recovery
	runsDone            *obs.Counter
	runsFailed          *obs.Counter
	cacheHits           *obs.Counter // POSTs answered by a completed run
	cacheCoalesced      *obs.Counter // POSTs attached to an in-flight run
	cacheMisses         *obs.Counter // POSTs that started a new run
	workerExecutes      *obs.Counter // runs admitted via the execute endpoint
	workerDeduped       *obs.Counter // execute requests answered without simulating
	followerDisconnects *obs.Counter // followers that left before the terminal event
	// With a store only (nil without one; every use is on a store path).
	storeHits     *obs.Counter // POSTs answered by a disk-restored result
	storeMisses   *obs.Counter // POSTs that missed memory and disk and simulated
	storeRestored *obs.Counter // results re-indexed from the store
	storeReplayed *obs.Counter // in-flight runs re-enqueued by recovery
	compactions   *obs.Counter // journal compactions performed

	// backend executes admitted runs; local is the in-process backend
	// that worker-endpoint runs (and Remote failovers) use.
	backend backend.Backend
	local   backend.Backend

	sem chan struct{} // run slots

	retireMu sync.Mutex // guards retired
	retired  []string   // terminal run IDs, oldest first

	admitMu sync.Mutex // serializes cache lookup+store on POST
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	closed  atomic.Bool
	started time.Time

	// blockRuns, when non-nil, parks every run once it turns Running:
	// the run reports its ID on blockRuns.parked, then waits until
	// blockRuns.release closes. Tests use it to pin in-flight states
	// (coalescing, queue admission) that are otherwise too fast to race.
	blockRuns *runBlock
}

// runBlock is the blockRuns test hook.
type runBlock struct {
	parked  chan string   // each run's ID as it parks
	release chan struct{} // closed to let every parked run go on
}

// New assembles a server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		log:      opts.Log,
		metrics:  opts.Metrics,
		registry: NewRegistry(),
		cache:    NewCache(),
		store:    opts.Store,
		local:    backend.Local{},
		sem:      make(chan struct{}, opts.MaxConcurrent),
		ctx:      ctx,
		cancel:   cancel,
		started:  time.Now(),
	}
	s.backend = opts.Backend
	if s.backend == nil {
		s.backend = s.local
	}
	s.registerMetrics(opts.Metrics)
	return s
}

// registerMetrics registers every family the server exposes. Derived
// values are sampled when /metrics is scraped; constants are set once.
func (s *Server) registerMetrics(m *obs.Registry) {
	// Process-level gauges: what a fleet operator correlates client
	// latency against (see docs/load.md).
	m.GaugeFunc("koalad_goroutines", "Goroutines in the process (followers hold one each).",
		func() float64 { return float64(runtime.NumGoroutine()) })
	m.GaugeFunc("koalad_registry_runs", "Runs resident in the registry (live + retained terminal).",
		func() float64 { return float64(s.registry.Len()) })
	s.queued = m.Gauge("koalad_queue_depth", "Admitted runs waiting for a concurrency slot.")
	s.activeRuns = m.Gauge("koalad_active_runs", "Runs currently executing.")
	s.activeSims = m.Gauge("koalad_active_simulations", "Replications currently simulating.")
	m.Gauge("koalad_run_slots", "Concurrent-run bound.").Set(int64(s.opts.MaxConcurrent))
	m.Gauge("koalad_sim_workers_default", "Per-run simulation parallelism handed to configs without their own.").
		Set(int64(effectiveWorkers(s.opts.Parallelism)))
	s.repsDone = m.Counter("koalad_replications_total", "Completed replications.")
	s.runsAdmitted = m.Counter("koalad_runs_total", "Runs admitted for execution.")
	s.runsDone = m.Counter("koalad_runs_done_total", "Runs completed successfully.")
	s.runsFailed = m.Counter("koalad_runs_failed_total", "Runs failed or aborted.")
	m.GaugeFunc("koalad_cache_size", "Results indexed by config fingerprint.",
		func() float64 { return float64(s.cache.Len()) })
	s.cacheHits = m.Counter("koalad_cache_hits_total", "Submissions answered from the result cache.")
	s.cacheCoalesced = m.Counter("koalad_cache_coalesced_total", "Submissions attached to an in-flight identical run.")
	s.cacheMisses = m.Counter("koalad_cache_misses_total", "Submissions that started a new run.")
	m.GaugeFunc("koalad_cache_hit_rate", "hits / (hits + misses).", func() float64 {
		h, m := float64(s.cacheHits.Value()), float64(s.cacheMisses.Value())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
	s.workerExecutes = m.Counter("koalad_worker_executes_total", "Runs served over the internal worker execute endpoint.")
	s.workerDeduped = m.Counter("koalad_worker_dedup_total", "Execute requests answered from cache/store without simulating.")
	s.queueWait = m.Histogram("koalad_queue_wait_seconds",
		"Time from admission to taking a concurrency slot.", obs.DefaultLatencyBuckets())
	s.runDuration = m.Histogram("koalad_run_duration_seconds",
		"Time from taking a slot to the terminal event.", obs.DefaultLatencyBuckets())
	s.followerStall = m.Histogram("koalad_follower_write_stall_seconds",
		"Time writing one event to an NDJSON follower (slow consumers stall here).", obs.DefaultLatencyBuckets())
	s.followers = m.Gauge("koalad_event_followers", "NDJSON event streams currently attached.")
	s.followerDisconnects = m.Counter("koalad_follower_disconnects_total",
		"Followers that disconnected before the run's terminal event.")
	if s.store == nil {
		return
	}
	s.storeHits = m.Counter("koalad_store_hits_total", "Submissions answered by a disk-restored result.")
	s.storeMisses = m.Counter("koalad_store_misses_total", "Submissions that missed memory and disk and simulated.")
	s.storeRestored = m.Counter("koalad_store_restored_total", "Results re-indexed from the store (recovery + lazy adoption).")
	s.storeReplayed = m.Counter("koalad_store_replayed_total", "In-flight runs re-enqueued by startup recovery.")
	s.compactions = m.Counter("koalad_journal_compactions_total", "Journal compactions performed.")
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("POST "+backend.ExecutePath, s.handleExecute)
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/experiments/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/experiments/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.EnablePprof {
		// The debug mux: net/http/pprof profiles of the live daemon
		// (goroutine, heap, CPU, trace), for diagnosing slow or stuck runs
		// without restarting it. No method restriction, matching stdlib
		// registration — `go tool pprof` POSTs to /debug/pprof/symbol.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Shutdown drains the daemon: new submissions are refused immediately,
// admitted runs (queued and running) are given until ctx expires to
// finish, then the shared run context is canceled to abort stragglers.
// It returns nil when everything drained, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flip closed under the admission lock: once Shutdown proceeds to
	// wait, no POST can be past its authoritative closed check and about
	// to add a run.
	s.admitMu.Lock()
	s.closed.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// submitResponse is the POST body: where the run lives and whether the
// cache answered it.
type submitResponse struct {
	ID        string `json:"id"`
	Hash      string `json:"hash"`
	Status    Status `json:"status"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`
	URL       string `json:"url"`
	EventsURL string `json:"events_url"`
}

func runURLs(id string) (string, string) {
	u := "/v1/experiments/" + id
	return u, u + "/events"
}

// Admission sentinels, mapped to HTTP statuses by the handlers.
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("run queue is full")
)

// decodeSubmission parses and validates a submitted ConfigSpec and
// resolves its fingerprint, writing the error response itself on
// failure (ok=false).
func (s *Server) decodeSubmission(w http.ResponseWriter, r *http.Request) (spec *experiment.ConfigSpec, cfg experiment.Config, hash string, ok bool) {
	spec, err := experiment.DecodeConfigSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, experiment.Config{}, "", false
	}
	cfg, err = spec.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, experiment.Config{}, "", false
	}
	if spec.Parallelism == 0 {
		cfg.Parallelism = s.opts.Parallelism
	}
	hash, err = experiment.Fingerprint(cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, experiment.Config{}, "", false
	}
	return spec, cfg, hash, true
}

// admit resolves (cfg, hash) to the run that serves it: an existing
// cached run (done, or in-flight to coalesce onto), a result adopted
// from the on-disk store, or — created=true — a freshly admitted run
// whose execution has been spawned. status is the run's state as
// classified under the admission lock (counters and the HTTP response
// must agree, even if the run finishes in between). localOnly pins a
// freshly admitted run to the in-process backend (the worker execute
// path must never re-forward). parent, when set, is the propagated
// span identity of the coordinator dispatch that submitted this run;
// a freshly admitted run then records its spans into the
// coordinator's trace (same trace ID, root parented under the
// dispatch span).
func (s *Server) admit(spec *experiment.ConfigSpec, cfg experiment.Config, hash string, localOnly bool, parent obs.SpanContext) (run *Run, status Status, created bool, err error) {
	// Fast path, no admission lock: a fingerprint already resident in
	// the cache — the overwhelmingly common case under read-heavy load —
	// is answered straight from the Lookup. admitMu exists to make
	// miss->create atomic (two identical submissions must not both
	// simulate); serving an already-cached run needs none of that, and
	// taking the lock here would serialize every cache-hit POST behind
	// whatever miss is currently journaling and spawning inside it.
	if existing := s.cache.Lookup(hash); existing != nil {
		run, status = s.serveCached(existing, hash)
		return run, status, false, nil
	}
	s.admitMu.Lock()
	// Double-check under the lock: an identical config may have been
	// admitted between the fast-path miss and here.
	if existing := s.cache.Lookup(hash); existing != nil {
		s.admitMu.Unlock()
		run, status = s.serveCached(existing, hash)
		return run, status, false, nil
	}
	// Memory missed; the on-disk store may still hold the result (a
	// retention-evicted run, or one never loaded at recovery). Adopting
	// it answers the POST without re-simulating. The file read happens
	// under admitMu — a deliberate tradeoff: misses are about to pay
	// seconds of simulation anyway, and probing outside the lock would
	// need a re-check against concurrently admitted identical configs.
	if s.store != nil {
		if run := s.adoptStored(hash); run != nil {
			s.admitMu.Unlock()
			s.cacheHits.Inc()
			s.storeHits.Inc()
			s.log.Info("koalad: store hit", "run", run.ID, "hash", shortHash(hash))
			return run, StatusDone, false, nil
		}
	}
	// Re-check closed under the lock: the handlers' early check is a
	// fast path, this one is authoritative against a concurrent
	// Shutdown (which flips the flag under the same lock before
	// draining).
	if s.closed.Load() {
		s.admitMu.Unlock()
		return nil, "", false, errDraining
	}
	if s.queued.Value() >= int64(s.opts.QueueDepth) {
		s.admitMu.Unlock()
		return nil, "", false, errQueueFull
	}
	// Only the admission path needs the wire-form spec (for the journal
	// and its compaction); hits and coalesces never marshal it.
	var specJSON json.RawMessage
	if s.store != nil {
		if specJSON, err = json.Marshal(spec); err != nil {
			s.admitMu.Unlock()
			return nil, "", false, err
		}
		s.storeMisses.Inc()
	}
	s.cacheMisses.Inc()
	s.runsAdmitted.Inc()
	run = s.registry.Create(hash, cfg, specJSON)
	run.localOnly = localOnly // before execution starts; only execute reads it
	run.beginTrace(parent)    // before the run is visible to any reader
	s.cache.Store(run)
	s.queued.Add(1)
	s.wg.Add(1) // inside the lock, so Shutdown's Wait covers this run
	s.admitMu.Unlock()

	// Journal the admission before acknowledging it: once the client
	// holds a run ID, a crash must recover the run.
	s.journalAppend(store.Record{Op: store.OpSubmitted, ID: run.ID, Hash: hash, Name: run.Name, Spec: run.specJSON})
	run.append(acceptedEvent{Type: "accepted", ID: run.ID, Name: run.Name, Hash: hash, Runs: cfg.Runs}, "")
	s.log.Info("koalad: run accepted",
		"run", run.ID, "name", run.Name, "runs", cfg.Runs, "hash", shortHash(hash), "trace", run.trace.ID)
	go s.execute(run)
	return run, run.Status(), true, nil
}

// serveCached accounts for a submission answered by an already-cached
// run: a hit when the run is terminal, a coalesce onto it in flight.
// The status is classified once so the counters and the HTTP response
// agree even if the run finishes in between.
func (s *Server) serveCached(existing *Run, hash string) (*Run, Status) {
	status := existing.Status()
	if status == StatusDone {
		s.cacheHits.Inc()
		if existing.Source == SourceStore {
			s.storeHits.Inc()
		}
		s.log.Info("koalad: cache hit", "run", existing.ID, "hash", shortHash(hash))
	} else {
		s.cacheCoalesced.Inc()
		s.log.Info("koalad: coalesced identical submission", "run", existing.ID, "hash", shortHash(hash))
	}
	return existing, status
}

// writeAdmitError maps an admission failure onto its HTTP response.
func writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	spec, cfg, hash, ok := s.decodeSubmission(w, r)
	if !ok {
		return
	}
	run, status, created, err := s.admit(spec, cfg, hash, false, obs.SpanContext{})
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	url, events := runURLs(run.ID)
	resp := submitResponse{ID: run.ID, Hash: hash, Status: status, URL: url, EventsURL: events}
	switch {
	case created:
		writeJSON(w, http.StatusAccepted, resp)
	case status == StatusDone:
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
	default:
		resp.Coalesced = true
		writeJSON(w, http.StatusAccepted, resp)
	}
}

// handleExecute is the internal worker endpoint behind backend.Remote:
// one POST both submits a config and follows it — the run's NDJSON
// event log streams back in the response, ending with the terminal
// summary (or error) event. A config whose result this daemon already
// holds — in memory or in its content-addressed store — answers
// without simulating: the dedupe that lets workers share work by
// fingerprint. Runs admitted here always execute on the in-process
// backend, so a mis-wired worker can never re-forward.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	spec, cfg, hash, ok := s.decodeSubmission(w, r)
	if !ok {
		return
	}
	// The coordinator's dispatch stamps its trace/span identity on the
	// request; executing under it parents this worker's spans into the
	// coordinator's trace.
	parent, _ := obs.ExtractHTTP(r)
	run, status, created, err := s.admit(spec, cfg, hash, true, parent)
	if err != nil {
		// 503/429 here bounce the shard back to the coordinator, which
		// fails it over to its own local backend.
		writeAdmitError(w, err)
		return
	}
	if !created && status != StatusDone && !run.localOnly {
		// The fingerprint is already in flight on this daemon's
		// *dispatch* backend — which may be the very dispatch that
		// issued this request (a coordinator whose -workers list routes
		// back to itself). Following that run here would deadlock: its
		// terminal event arrives only when this response produces one.
		// Bounce instead; the caller fails over to its local backend
		// and the result stays byte-identical.
		writeError(w, http.StatusServiceUnavailable, "config is in flight on this daemon's dispatch backend")
		return
	}
	s.workerExecutes.Inc()
	if !created && status == StatusDone {
		s.workerDeduped.Inc()
		s.log.Info("koalad: deduped execute request", "run", run.ID, "hash", shortHash(hash))
	}
	s.streamRun(w, r, run)
}

// retire records a terminal run — a finishing one just before its
// terminal event, so retention order is completion order — and enforces
// the retention bound: beyond MaxRetained terminal runs, the oldest
// leave the registry and the cache (their configs re-simulate on a
// future POST).
func (s *Server) retire(run *Run) {
	s.retireMu.Lock()
	s.retired = append(s.retired, run.ID)
	var evict []string
	if n := len(s.retired) - s.opts.MaxRetained; n > 0 {
		evict = s.retired[:n]
		s.retired = append([]string(nil), s.retired[n:]...)
	}
	s.retireMu.Unlock()
	for _, id := range evict {
		if old := s.registry.Get(id); old != nil {
			s.cache.Evict(old)
			s.registry.Remove(id)
			s.log.Info("koalad: run evicted", "run", id, "retention", s.opts.MaxRetained)
		}
	}
}

// execute owns a run's lifecycle after admission: slot wait, streaming
// execution, then completeRun or failRun on every path out.
func (s *Server) execute(run *Run) {
	defer s.wg.Done()
	var runStart time.Time // when the run took its slot; zero before, and after endRun
	defer func() {
		if p := recover(); p != nil {
			msg := fmt.Sprintf("run panicked: %v", p)
			s.log.Error("koalad: run panicked", "run", run.ID, "panic", p, "stack", string(debug.Stack()))
			s.failRun(run, &runStart, msg, true)
		}
	}()

	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-s.ctx.Done():
		s.queued.Add(-1)
		// Deliberately NOT journaled as failed: a run aborted by shutdown
		// is exactly what recovery should re-enqueue on the next start.
		s.failRun(run, &runStart, "server shut down before the run started", false)
		return
	}
	runStart = time.Now()
	s.activeRuns.Add(1)
	run.trace.EndSpan(run.queueSpan)
	s.queueWait.Observe(runStart.Sub(run.submittedAt).Seconds())
	run.setStatus(StatusRunning)
	if blk := s.blockRuns; blk != nil {
		blk.parked <- run.ID
		<-blk.release
	}

	// The dispatcher seam: queued runs flow to the configured backend
	// (in-process pool, or sharded out to worker daemons), except runs
	// admitted through the worker execute endpoint, which are pinned
	// local so workers never re-forward.
	b := s.backend
	if run.localOnly {
		b = s.local
	}
	// The dispatch span covers the backend execution; its identity rides
	// the context so a remote backend can stamp it on the execute request
	// (the worker's spans then parent under it), and the sink receives
	// the spans a worker streams back.
	dispatchSpan := run.trace.StartSpan(run.runSpan, "dispatch", map[string]string{"backend": b.Name()})
	ctx := obs.ContextWithSpanContext(s.ctx, obs.SpanContext{TraceID: run.trace.ID, SpanID: dispatchSpan})
	ctx = obs.ContextWithSpanSink(ctx, run.trace.Import)

	var started, finished atomic.Int64
	var repMu sync.Mutex
	repSpans := make(map[int]string) // replication index -> open span ID
	hooks := experiment.StreamHooks{
		OnStart: func(rep int, _ uint64) {
			started.Add(1)
			s.activeSims.Add(1)
			id := run.trace.StartSpan(dispatchSpan, "replication", map[string]string{"rep": strconv.Itoa(rep)})
			repMu.Lock()
			repSpans[rep] = id
			repMu.Unlock()
		},
		OnDone: func(rep experiment.Replication) {
			finished.Add(1)
			s.activeSims.Add(-1)
			s.repsDone.Inc()
			repMu.Lock()
			id := repSpans[rep.Rep]
			delete(repSpans, rep.Rep)
			repMu.Unlock()
			run.trace.EndSpan(id)
			run.append(repEvent{Type: "replication", ID: run.ID, Replication: rep}, "")
		},
	}
	res, err := b.RunPoint(ctx, run.cfg, hooks)
	run.trace.EndSpan(dispatchSpan)
	// Replications aborted mid-flight never reach OnDone; return their
	// gauge contribution.
	s.activeSims.Add(finished.Load() - started.Load())
	if err != nil {
		s.log.Warn("koalad: run failed", "run", run.ID, "err", err)
		// A real failure is journaled terminal; a shutdown abort is left
		// in-flight so the next start re-runs it.
		s.failRun(run, &runStart, err.Error(), s.ctx.Err() == nil)
		return
	}
	s.completeRun(run, &runStart, res.Summary())
	s.log.Info("koalad: run done",
		"run", run.ID, "jobs", res.Jobs(), "replications", len(res.Replications), "trace", run.trace.ID)
}

// completeRun and failRun make a run terminal. Every completion side
// effect lands before the terminal event is published — the duration
// observation, the released slot, the closed trace, the done/failed
// counter, the store write, the retention slot and any eviction it
// causes — so that event is the run's single linearization point: a
// follower that sees it finds all of them in place. The journal's
// terminal record follows the event, because compaction keeps the
// records of runs that still read as in flight and would otherwise
// erase this one's.
func (s *Server) completeRun(run *Run, started *time.Time, sum experiment.StreamSummary) {
	s.endRun(run, started)
	s.runsDone.Inc()
	// The trace event precedes the terminal summary: a coordinator
	// following this run over the execute endpoint imports these spans
	// into its own trace, and its stream reader stops at the summary.
	// Public followers see the same trace event and may ignore it. On a
	// deduped re-execute the logged event replays with the original
	// run's spans — a documented artifact.
	run.append(traceEvent{Type: "trace", ID: run.ID, Spans: run.trace.Snapshot().Spans}, "")
	stored := s.persistResult(run, sum)
	s.retire(run)
	run.finish(sum)
	if stored {
		s.journalAppend(store.Record{Op: store.OpCompleted, ID: run.ID, Hash: run.Hash})
	}
}

// failRun is completeRun's failure twin; journal says whether the
// failure is journaled terminal.
func (s *Server) failRun(run *Run, started *time.Time, msg string, journal bool) {
	s.endRun(run, started)
	s.cache.Evict(run)
	s.runsFailed.Inc()
	s.retire(run)
	run.fail(msg)
	if journal {
		s.journalAppend(store.Record{Op: store.OpFailed, ID: run.ID, Hash: run.Hash, Error: msg})
	}
}

// endRun closes the run's trace and, if it holds a slot (*started is
// when it took it, zero if it never did), observes its duration and
// gives the slot back. It zeroes *started, so a panic recovered later
// in execute cannot give the slot back twice.
func (s *Server) endRun(run *Run, started *time.Time) {
	run.endTrace()
	if started.IsZero() {
		return
	}
	s.runDuration.Observe(time.Since(*started).Seconds())
	*started = time.Time{}
	s.activeRuns.Add(-1)
	<-s.sem
}

// listItem is one row of GET /v1/experiments: enough to find a run and
// tell whether its result was simulated here (live) or restored from
// the on-disk store (store).
type listItem struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Hash      string `json:"hash"`
	Status    Status `json:"status"`
	Source    string `json:"source"`
	URL       string `json:"url"`
	EventsURL string `json:"events_url"`
}

// listResponse is the GET /v1/experiments body.
type listResponse struct {
	Experiments []listItem `json:"experiments"`
}

// handleList enumerates every resident run in sequence order — until
// now results were only reachable by ID, so a client that lost its IDs
// had to replay its submissions.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.registry.All()
	items := make([]listItem, 0, len(runs))
	for _, run := range runs {
		url, events := runURLs(run.ID)
		items = append(items, listItem{
			ID: run.ID, Name: run.Name, Hash: run.Hash, Status: run.Status(),
			Source: run.Source, URL: url, EventsURL: events,
		})
	}
	writeJSON(w, http.StatusOK, listResponse{Experiments: items})
}

// getResponse is the GET /v1/experiments/{id} body: identity, state,
// provenance (live vs store-restored), lifecycle timings and — when
// done — the summary. The summary and hash are deterministic; source
// and timings are observability and are excluded from byte-level
// comparisons across restarts.
type getResponse struct {
	ID        string                    `json:"id"`
	Name      string                    `json:"name"`
	Hash      string                    `json:"hash"`
	Status    Status                    `json:"status"`
	Source    string                    `json:"source"`
	EventsURL string                    `json:"events_url"`
	Timings   *runTimings               `json:"timings,omitempty"`
	Error     string                    `json:"error,omitempty"`
	Summary   *experiment.StreamSummary `json:"summary,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run := s.registry.Get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	status, summary, errMsg := run.Snapshot()
	_, events := runURLs(run.ID)
	writeJSON(w, http.StatusOK, getResponse{
		ID: run.ID, Name: run.Name, Hash: run.Hash, Status: status, Source: run.Source,
		EventsURL: events, Timings: run.Timings(), Error: errMsg, Summary: summary,
	})
}

// handleEvents streams the run's event log as NDJSON: full replay for
// late subscribers, then follow until the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run := s.registry.Get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	s.streamRun(w, r, run)
}

// streamRun writes a run's event log as NDJSON — replay, then follow
// until the terminal event — shared by the public events endpoint and
// the worker execute endpoint. Followers are counted on a gauge while
// attached; one that leaves before the terminal event (client close,
// write error) increments the disconnect counter.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, run *Run) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	s.followers.Add(1)
	defer s.followers.Add(-1)
	run.trace.Point(run.runSpan, "stream-follower", map[string]string{"remote": r.RemoteAddr})
	disconnected := func() {
		s.followerDisconnects.Inc()
		s.log.Info("koalad: follower disconnected before terminal event", "run", run.ID, "remote", r.RemoteAddr)
	}

	i := 0
	for {
		evs, terminal, changed := run.next(i)
		for _, ev := range evs {
			// Events are stored newline-terminated (see Run.append): one
			// encode at publication, one Write per follower — no per-
			// follower re-framing, no mutation of shared backing arrays.
			start := time.Now()
			if _, err := w.Write(ev); err != nil {
				disconnected()
				return
			}
			s.followerStall.Observe(time.Since(start).Seconds())
		}
		i += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		if len(evs) > 0 {
			// More events may have landed while these were being written;
			// drain before blocking (next only hands out a wakeup channel
			// when there is truly nothing to do).
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			disconnected()
			return
		}
	}
}

// handleTrace serves the run's span collection: every lifecycle phase
// this daemon recorded plus any spans imported from workers. Traces are
// wall-clock observability — deliberately absent from the event log's
// deterministic surface.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run := s.registry.Get(r.PathValue("id"))
	if run == nil {
		writeError(w, http.StatusNotFound, "no such experiment")
		return
	}
	writeJSON(w, http.StatusOK, run.trace.Snapshot())
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	Role          string  `json:"role,omitempty"`
	Backend       string  `json:"backend"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	ActiveRuns    int64   `json:"active_runs"`
	QueuedRuns    int64   `json:"queued_runs"`
	InFlightSims  int64   `json:"in_flight_replications"`
	Followers     int64   `json:"followers"`
	Runs          int     `json:"runs"`
	CacheSize     int     `json:"cache_size"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// A draining daemon answers 503 + "draining": load balancers and
	// coordinator health rings (backend's health-gated worker ring)
	// treat anything but 200/"ok" as not-routable, so a worker in
	// Server.Shutdown stops receiving dispatches before its listener
	// closes instead of bouncing them one by one.
	status, code := "ok", http.StatusOK
	if s.closed.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzResponse{
		Status:        status,
		Version:       s.opts.Version,
		Role:          s.opts.Role,
		Backend:       s.backend.Name(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		ActiveRuns:    s.activeRuns.Value(),
		QueuedRuns:    s.queued.Value(),
		InFlightSims:  s.activeSims.Value(),
		Followers:     s.followers.Value(),
		Runs:          s.registry.Len(),
		CacheSize:     s.cache.Len(),
	})
}

// handleMetrics renders every registered family in Prometheus text
// exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.Render(w)
}

func effectiveWorkers(parallelism int) int {
	if parallelism <= 0 {
		return parallel.DefaultWorkers()
	}
	return parallelism
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
