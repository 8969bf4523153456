package backend

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
)

// ExecutePath is the internal worker endpoint Remote dispatches to: a
// koalad POSTs a ConfigSpec there and streams the run's NDJSON events
// back in the response body (see internal/server's handleExecute).
const ExecutePath = "/v1/runs/execute"

// RemoteOptions configure a Remote backend.
type RemoteOptions struct {
	// Workers are the worker daemons' base URLs (http://host:port).
	// Required, and validated by NewRemote — a malformed URL fails at
	// construction, not at first dispatch.
	Workers []string
	// Client issues the dispatch requests. Nil builds a client with
	// dial, TLS-handshake and response-header timeouts (see
	// DialTimeout / ResponseHeaderTimeout) but no overall deadline —
	// runs are long; per-request liveness comes from the progress-idle
	// watchdog and cancellation from ctx.
	Client *http.Client
	// Fallback executes points whose every worker candidate failed
	// (default Local{}).
	Fallback Backend
	// Log receives one structured record per retry, reroute, breaker
	// transition, ring flip and failover (optional; nil discards).
	Log *slog.Logger
	// Metrics is the registry the dispatch families (outcome counters,
	// RTT, retries, breaker state, ring membership) land on; share the
	// server's so /metrics scrapes them. Nil creates a private registry.
	Metrics *obs.Registry
	// Retry shapes the per-worker retry loop (zero value = defaults:
	// 2 retries, 50ms base, 2s cap; MaxRetries < 0 disables).
	Retry RetryPolicy
	// BreakerThreshold is how many consecutive failures open a
	// worker's circuit breaker (0 = default 3; negative disables the
	// breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses dispatches
	// before letting one probe through (default 5s).
	BreakerCooldown time.Duration
	// HealthInterval is the ring's /healthz poll period. 0 disables
	// background polling (the ring still gates on breaker state and
	// can be refreshed explicitly via RefreshHealth).
	HealthInterval time.Duration
	// DialTimeout bounds connection establishment of the default
	// client (default 5s). Ignored when Client is set.
	DialTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for a worker's response
	// headers on the default client (default 30s) — a worker that
	// accepts the connection and then hangs before answering is
	// detected here. Ignored when Client is set.
	ResponseHeaderTimeout time.Duration
	// IdleEventTimeout is the progress-idle watchdog on follow
	// streams: if no NDJSON event arrives for this long the dispatch
	// is aborted and classified retryable. Reset on every event, so
	// long healthy runs that keep reporting replications are
	// unaffected; a stalled worker is detected within one period.
	// 0 = default 2m; negative disables.
	IdleEventTimeout time.Duration
}

// Remote shards experiment points across worker koalad daemons by the
// config's canonical fingerprint: the same point always lands on the
// same worker, so a worker's content-addressed store accumulates
// exactly the shard it owns and answers re-submissions without
// simulating.
//
// Failure handling is layered (see docs/resilience.md):
//
//  1. Retryable failures (connect refused/reset, 429/5xx, torn or
//     stalled NDJSON) retry on the owning worker with capped
//     exponential backoff and fingerprint-seeded deterministic jitter.
//  2. A worker whose consecutive failures cross the breaker threshold
//     is circuit-broken: dispatches skip it without spending retry
//     budget until a cooldown probe succeeds.
//  3. A point whose owner is broken, gated out by the health ring
//     (unreachable or draining), or still failing after retries,
//     reroutes to the next healthy worker on the ring.
//  4. Only when every worker candidate is exhausted does the point
//     fail over to the fallback backend (normally Local).
//
// The result is byte-identical on every path — retries, reroutes and
// failover cost time, never correctness.
type Remote struct {
	workers  []string
	client   *http.Client
	fallback Backend
	log      *slog.Logger
	retry    RetryPolicy
	idle     time.Duration
	breakers map[string]*breaker
	ring     *ring

	rtt           obs.HistogramVec // dispatch round-trip per worker
	workerRetries obs.CounterVec   // retries per worker
	dispatched    *obs.Counter     // points entering RunPoint
	remoteDone    *obs.Counter     // points completed by a worker
	failovers     *obs.Counter     // points re-run on the fallback
	retries       *obs.Counter     // same-worker retry attempts
	reroutes      *obs.Counter     // attempts moved to a non-owner worker
}

// NewRemote validates the worker URLs and assembles the backend. Call
// Close when done if HealthInterval is set (it stops the poll loop).
func NewRemote(opts RemoteOptions) (*Remote, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("backend: remote needs at least one worker URL")
	}
	workers := make([]string, 0, len(opts.Workers))
	for _, raw := range opts.Workers {
		w := strings.TrimSpace(raw)
		if w == "" {
			return nil, fmt.Errorf("backend: empty worker URL")
		}
		u, err := url.Parse(w)
		if err != nil {
			return nil, fmt.Errorf("backend: worker URL %q: %v", w, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || u.User != nil ||
			u.RawQuery != "" || u.Fragment != "" || (u.Path != "" && u.Path != "/") {
			return nil, fmt.Errorf("backend: worker URL %q: need http(s)://host[:port] with no path or query", w)
		}
		workers = append(workers, u.Scheme+"://"+u.Host)
	}
	r := &Remote{
		workers:  workers,
		client:   opts.Client,
		fallback: opts.Fallback,
		log:      opts.Log,
		retry:    opts.Retry.withDefaults(),
		idle:     opts.IdleEventTimeout,
	}
	if r.client == nil {
		dial := opts.DialTimeout
		if dial <= 0 {
			dial = 5 * time.Second
		}
		header := opts.ResponseHeaderTimeout
		if header <= 0 {
			header = 30 * time.Second
		}
		// No overall client timeout — runs are long — but every phase
		// that can hang silently gets its own bound: dial, TLS
		// handshake, response headers. Stream liveness after the
		// headers is the idle watchdog's job.
		r.client = &http.Client{Transport: &http.Transport{
			Proxy:                 http.ProxyFromEnvironment,
			DialContext:           (&net.Dialer{Timeout: dial, KeepAlive: 30 * time.Second}).DialContext,
			TLSHandshakeTimeout:   dial,
			ResponseHeaderTimeout: header,
			MaxIdleConnsPerHost:   4,
			IdleConnTimeout:       90 * time.Second,
		}}
	}
	if r.idle == 0 {
		r.idle = 2 * time.Minute
	}
	if r.fallback == nil {
		r.fallback = Local{}
	}
	if r.log == nil {
		r.log = obs.NopLogger()
	}

	threshold := opts.BreakerThreshold
	if threshold == 0 {
		threshold = 3
	}
	if threshold < 0 {
		threshold = 0 // disables (breaker.Allow always true)
	}
	cooldown := opts.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}

	m := opts.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	m.Gauge("koalad_dispatch_workers", "Worker daemons configured for dispatch.").Set(int64(len(workers)))
	r.dispatched = m.Counter("koalad_dispatch_remote_total", "Runs dispatched to a worker daemon.")
	r.remoteDone = m.Counter("koalad_dispatch_remote_done_total", "Runs completed by a worker daemon.")
	r.failovers = m.Counter("koalad_dispatch_failover_total", "Runs failed over to the local backend.")
	r.retries = m.Counter("koalad_dispatch_retries_total", "Same-worker dispatch retries after a retryable failure.")
	r.reroutes = m.Counter("koalad_dispatch_reroutes_total",
		"Dispatch attempts rerouted off the owner shard to another healthy worker.")
	opens := m.Counter("koalad_dispatch_breaker_opens_total",
		"Per-worker circuit-breaker open transitions (sum over workers).")
	r.rtt = m.HistogramVec("koalad_dispatch_rtt_seconds",
		"Dispatch round-trip per worker: POST to terminal event (failures included).",
		"worker", obs.DefaultLatencyBuckets())
	r.workerRetries = m.CounterVec("koalad_worker_retries_total",
		"Same-worker dispatch retries after a retryable failure.", "worker")
	workerOpens := m.CounterVec("koalad_breaker_opens_total",
		"Circuit-breaker open transitions per worker.", "worker")
	breakerStates := m.GaugeVec("koalad_breaker_state",
		"Circuit-breaker state per worker (0 closed, 1 open, 2 half-open).", "worker")
	ringFlips := m.CounterVec("koalad_ring_transitions_total",
		"Health-ring admissions and ejections per worker.", "worker")
	m.GaugeFunc("koalad_ring_healthy_workers", "Workers currently admitted by the health-gated ring.",
		func() float64 { return float64(r.ring.healthyCount()) })

	r.breakers = make(map[string]*breaker, len(workers))
	for _, w := range workers {
		w := w
		b := newBreaker(threshold, cooldown)
		b.onTransition = func(from, to breakerState) {
			if to == breakerOpen {
				opens.Inc()
				workerOpens.With(w).Inc()
				r.log.Warn("backend: circuit breaker opened", "worker", w)
			} else {
				r.log.Info("backend: circuit breaker "+to.String(), "worker", w)
			}
			breakerStates.With(w).Set(int64(to))
		}
		r.breakers[w] = b
	}

	r.ring = newRing(workers, r.client, r.log)
	r.ring.onTransition = func(worker string, healthy bool) {
		ringFlips.With(worker).Inc()
	}
	r.ring.start(opts.HealthInterval)
	return r, nil
}

// Close stops the ring's background health polling (safe to call even
// when polling was never started, and more than once).
func (r *Remote) Close() { r.ring.shutdown() }

// RefreshHealth runs one synchronous /healthz probe pass over every
// worker, updating ring membership — the explicit alternative to
// background polling (tests, or a caller that wants probe-on-demand).
func (r *Remote) RefreshHealth(ctx context.Context) { r.ring.checkAll(ctx) }

// HealthyWorkers snapshots the workers currently admitted by the ring,
// in configuration order.
func (r *Remote) HealthyWorkers() []string { return r.ring.healthyWorkers() }

// Name implements Backend.
func (r *Remote) Name() string { return "remote" }

// Workers returns the validated worker base URLs.
func (r *Remote) Workers() []string { return append([]string(nil), r.workers...) }

// ShardIndex maps a fingerprint onto a worker index in [0, n). FNV-1a
// over the hex hash: stable across processes and restarts, so every
// coordinator agrees where a config lives. Exported so tests and
// tooling can predict shard ownership from a fingerprint.
func ShardIndex(hash string, n int) int {
	h := fnv.New64a()
	_, _ = io.WriteString(h, hash)
	return int(h.Sum64() % uint64(n))
}

func shardIndex(hash string, n int) int { return ShardIndex(hash, n) }

// RunPoint implements Backend: fingerprint, shard, dispatch with
// retries, reroute across the healthy ring, and — only when every
// worker candidate is exhausted — fall back to the local backend.
// Hooks already fired for replications a worker streamed before dying
// fire again on the retrying attempt; the returned result is the
// complete point either way.
func (r *Remote) RunPoint(ctx context.Context, cfg experiment.Config, hooks experiment.StreamHooks) (*experiment.StreamResult, error) {
	hash, err := experiment.Fingerprint(cfg)
	if err != nil {
		return nil, err
	}
	r.dispatched.Inc()
	var lastErr error
	for i, worker := range r.ring.candidates(hash) {
		br := r.breakers[worker]
		if !br.Allow() {
			r.log.Info("backend: skipping circuit-broken worker",
				"worker", worker, "config", cfg.Name, "hash", shortHash(hash))
			continue
		}
		if i > 0 {
			r.reroutes.Inc()
			r.log.Warn("backend: rerouting point off its owner shard",
				"worker", worker, "config", cfg.Name, "hash", shortHash(hash), "prev_err", lastErr)
		}
		res, err := r.tryWorker(ctx, worker, hash, cfg, hooks)
		if err == nil {
			r.remoteDone.Inc()
			return res, nil
		}
		if ctx.Err() != nil {
			// The point was canceled, not the worker broken; surface it.
			return nil, err
		}
		lastErr = err
	}
	r.failovers.Inc()
	r.log.Warn("backend: all worker candidates exhausted; failing over",
		"config", cfg.Name, "hash", shortHash(hash),
		"err", lastErr, "fallback", r.fallback.Name())
	return r.fallback.RunPoint(ctx, cfg, hooks)
}

// tryWorker runs the per-worker retry loop: attempt, classify, back
// off, re-attempt — bounded by the retry budget, cut short by a
// terminal error or by the worker's breaker opening under it (a dead
// worker must not eat the budget reroutes could use).
func (r *Remote) tryWorker(ctx context.Context, worker, hash string, cfg experiment.Config, hooks experiment.StreamHooks) (*experiment.StreamResult, error) {
	br := r.breakers[worker]
	for attempt := 0; ; attempt++ {
		res, err := r.runOn(ctx, worker, cfg, hooks)
		if err == nil {
			br.Success()
			return res, nil
		}
		br.Failure()
		if ctx.Err() != nil || !retryableError(err) || attempt >= r.retry.MaxRetries {
			return nil, err
		}
		if br.State() == breakerOpen {
			r.log.Warn("backend: abandoning retries, breaker opened",
				"worker", worker, "config", cfg.Name, "attempt", attempt+1, "err", err)
			return nil, err
		}
		delay := r.retry.Delay(hash, attempt)
		r.retries.Inc()
		r.workerRetries.With(worker).Inc()
		r.log.Info("backend: retrying worker dispatch",
			"worker", worker, "config", cfg.Name, "hash", shortHash(hash),
			"attempt", attempt+1, "backoff", delay, "err", err)
		if err := r.retry.sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// wireEvent is the union of the worker's NDJSON event shapes; unknown
// event types and extra fields are skipped, so workers may grow their
// event vocabulary without breaking older coordinators.
type wireEvent struct {
	Type    string          `json:"type"`
	Error   string          `json:"error"`
	Summary json.RawMessage `json:"summary"`
	Spans   []obs.Span      `json:"spans"`
	experiment.Replication
}

// runOn executes one point on a worker: POST the resolved ConfigSpec,
// replay the run's NDJSON events into hooks, and rebuild the result
// from the terminal summary. Any transport or protocol trouble returns
// a classified error — the caller owns retry/reroute/failover. A
// progress-idle watchdog (reset on every event line) aborts a stream
// that stops making progress without dying.
func (r *Remote) runOn(ctx context.Context, worker string, cfg experiment.Config, hooks experiment.StreamHooks) (*experiment.StreamResult, error) {
	spec, err := experiment.SpecFromConfig(cfg)
	if err != nil {
		return nil, &terminalError{err}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, &terminalError{err}
	}

	reqCtx := ctx
	var stalled atomic.Bool
	var watchdog *time.Timer
	if r.idle > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		watchdog = time.AfterFunc(r.idle, func() {
			stalled.Store(true)
			cancel()
		})
		defer watchdog.Stop()
	}
	// classify wraps a transport/stream error, tagging a watchdog abort
	// as a stall (retryable) rather than a caller cancellation.
	classify := func(reason string, err error) error {
		if stalled.Load() && ctx.Err() == nil {
			return &tornStreamError{reason: fmt.Sprintf("no event for %s", r.idle), err: err}
		}
		return &tornStreamError{reason: reason, err: err}
	}

	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, worker+ExecutePath, bytes.NewReader(body))
	if err != nil {
		return nil, &terminalError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the dispatch span identity so the worker's spans parent
	// under this coordinator's trace (no-op without a span context).
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		sc.InjectHTTP(req)
	}
	start := time.Now()
	defer func() { r.rtt.With(worker).Observe(time.Since(start).Seconds()) }()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, classify("submit failed", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, &workerHTTPError{code: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
	}

	// Read lines with a plain buffered reader, not a Scanner: the
	// terminal summary event embeds every replication, so a large point
	// (thousands of runs) produces a line far beyond any fixed Scanner
	// cap — and truncating it would throw away a fully simulated result
	// and re-run the whole point locally.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, classify("stream died mid-read", err)
		}
		atEOF := err == io.EOF
		if watchdog != nil {
			watchdog.Reset(r.idle)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if atEOF {
				break
			}
			continue
		}
		var ev wireEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// A partial final line from a torn connection, not a schema
			// mismatch: retryable.
			return nil, classify("partial or garbled event line", err)
		}
		switch ev.Type {
		case "replication":
			// The worker reports completions only; synthesize the start
			// so OnStart/OnDone gauges stay paired.
			if hooks.OnStart != nil {
				hooks.OnStart(ev.Rep, ev.Seed)
			}
			if hooks.OnDone != nil {
				hooks.OnDone(ev.Replication)
			}
		case "trace":
			// The worker's execution spans, streamed just before the
			// terminal event; deliver them to the coordinator's trace.
			if sink := obs.SpanSinkFrom(ctx); sink != nil && len(ev.Spans) > 0 {
				sink(ev.Spans)
			}
		case "summary":
			// Strict summary decode: a worker speaking an incompatible
			// schema is terminal — every retry would fail identically.
			sum, err := experiment.DecodeSummary(ev.Summary)
			if err != nil {
				return nil, &terminalError{err}
			}
			return experiment.StreamResultFromSummary(cfg, sum), nil
		case "error":
			// The run itself failed on the worker; the simulation is
			// deterministic, so a retry fails the same way.
			return nil, &terminalError{fmt.Errorf("worker run failed: %s", ev.Error)}
		}
		if atEOF {
			break
		}
	}
	return nil, classify("stream ended without a summary", nil)
}

// Health implements Backend: probe every worker's /healthz and report
// how many answered.
func (r *Remote) Health(ctx context.Context) Health {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	up := 0
	var detail []string
	for _, w := range r.workers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+"/healthz", nil)
		if err != nil {
			detail = append(detail, w+": "+err.Error())
			continue
		}
		resp, err := r.client.Do(req)
		if err != nil {
			detail = append(detail, w+": unreachable")
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			up++
		} else {
			detail = append(detail, fmt.Sprintf("%s: status %d", w, resp.StatusCode))
		}
	}
	h := Health{Healthy: up > 0, Workers: up}
	if len(detail) == 0 {
		h.Detail = fmt.Sprintf("%d/%d workers up", up, len(r.workers))
	} else {
		h.Detail = fmt.Sprintf("%d/%d workers up (%s)", up, len(r.workers), strings.Join(detail, "; "))
	}
	return h
}
