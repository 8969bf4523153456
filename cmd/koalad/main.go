// Command koalad is the long-running experiment server: it accepts
// experiment configs as JSON over HTTP, executes them on a bounded run
// pool with the streaming aggregation path (constant memory per run),
// streams per-replication progress as NDJSON and caches completed
// results by the config's canonical content hash — identical
// re-submissions are answered without re-simulating.
//
// Usage:
//
//	koalad [-addr :8080] [-parallel N] [-max-runs N] [-queue N]
//	       [-workers http://hostA:8080,http://hostB:8080] [-role worker]
//	       [-worker-retry-max N] [-worker-timeout D] [-breaker-threshold N]
//	       [-breaker-cooldown D] [-health-interval D]
//	       [-data-dir DIR] [-store-max-bytes N] [-store-max-age D]
//	       [-store-fsync] [-store-gc-interval D] [-pprof]
//	       [-log-format text|json] [-log-level info] [-version]
//
// Endpoints:
//
//	POST /v1/experiments             submit a config (JSON), get a run ID
//	GET  /v1/experiments             list resident runs (id, hash, status, source)
//	GET  /v1/experiments/{id}        status, source, timings + final summary
//	GET  /v1/experiments/{id}/events NDJSON progress stream (replay + follow)
//	GET  /v1/experiments/{id}/trace  the run's lifecycle spans (JSON)
//	POST /v1/runs/execute            internal worker endpoint: submit + follow
//	                                 in one NDJSON response (coordinators
//	                                 dispatch shards here)
//	GET  /healthz                    liveness, version, role, queue gauges
//	GET  /metrics                    Prometheus text metrics
//	GET  /debug/pprof/               live profiling (opt-in via -pprof; the
//	                                 endpoints are unauthenticated)
//
// With -workers the daemon is a multi-node coordinator: admitted runs
// are sharded across the listed worker daemons by config fingerprint
// (the same config always lands on the same worker, so worker stores
// dedupe re-submissions without simulating) and progress streams back
// through the normal event path. Dispatches are fault tolerant: a torn
// stream or 429/5xx is retried -worker-retry-max times with capped
// exponential backoff (jitter is deterministic per run fingerprint), a
// worker that keeps failing trips a per-worker circuit breaker after
// -breaker-threshold consecutive failures (probed again after
// -breaker-cooldown), unhealthy or draining workers are dropped from
// the routing ring by the -health-interval /healthz poll, and a point
// that exhausts every healthy worker fails over to the local backend —
// results are byte-identical on every path (see docs/resilience.md).
// -role worker labels a daemon that only serves execution (it refuses
// -workers, so work cannot be re-forwarded).
//
// With -data-dir the daemon is durable: completed summaries are written
// through to a content-addressed on-disk store, run transitions are
// journaled, and a restart recovers everything — cached results answer
// identical re-POSTs without re-simulating, and runs that were in
// flight when the process died are re-enqueued. -store-max-bytes and
// -store-max-age bound the store; a GC sweep enforces them at startup
// and every -store-gc-interval.
//
// SIGINT/SIGTERM drain gracefully: new submissions are refused while
// admitted runs finish (bounded by -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// fatal logs an error record and exits: koalad's startup validation
// must fail the process with a clear message, not a stack trace.
func fatal(log *slog.Logger, msg string, attrs ...any) {
	log.Error(msg, attrs...)
	os.Exit(1)
}

func main() {
	version := flag.Bool("version", false, "print version and exit")
	addr := flag.String("addr", ":8080", "listen address")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "per-run simulation parallelism for configs that do not set their own (default: one worker per CPU)")
	maxRuns := flag.Int("max-runs", 2, "maximum concurrently executing runs")
	queue := flag.Int("queue", 8, "maximum admitted runs waiting for a slot (beyond it POST returns 429)")
	retain := flag.Int("retain", 256, "terminal runs kept resident (results + event logs); the oldest beyond this are forgotten")
	workers := flag.String("workers", "", "comma-separated worker koalad base URLs (http://host:port): shard runs across them by config fingerprint, with local failover")
	role := flag.String("role", "coordinator", "daemon role: coordinator (dispatches to -workers when set) or worker (execution only; refuses -workers)")
	workerRetryMax := flag.Int("worker-retry-max", 2, "retries per worker dispatch before rerouting/failing over (0 = default, negative = no retries)")
	workerTimeout := flag.Duration("worker-timeout", 2*time.Minute, "abort a worker stream that goes this long without an NDJSON event (negative = no idle watchdog)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive dispatch failures before a worker's circuit breaker opens (negative = breaker disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before admitting a half-open probe dispatch")
	healthInterval := flag.Duration("health-interval", 15*time.Second, "how often the coordinator polls worker /healthz to gate the shard ring (0 = no background polling)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a shutdown waits for in-flight runs before aborting them")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the daemon's mux (unauthenticated; enable only on trusted networks)")
	dataDir := flag.String("data-dir", "", "directory for the persistent result store and run journal (empty = in-memory only, results do not survive a restart)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "GC bound on the result store's total size in bytes (0 = unbounded)")
	storeMaxAge := flag.Duration("store-max-age", 0, "GC bound on a stored result's age (0 = unbounded)")
	storeFsync := flag.Bool("store-fsync", false, "fsync store writes and journal appends (survives power loss, not just process death; slower)")
	storeGCInterval := flag.Duration("store-gc-interval", 10*time.Minute, "how often the store GC sweep enforces -store-max-bytes/-store-max-age (0 = only at startup)")
	logFormat := flag.String("log-format", obs.LogText, "log output format: text or json (structured either way)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("koalad"))
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "koalad: %v\n", err)
		os.Exit(1)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "koalad: %v\n", err)
		os.Exit(1)
	}
	// One metrics registry for the whole process: the server, the
	// remote backend and the store each register their families here,
	// and /metrics renders them together.
	metrics := obs.NewRegistry()
	// Validate execution knobs up front: a bad value must fail the
	// process at startup with a clear message, not surface as a wedged
	// pool or a dispatch error minutes into a run.
	if *par < 1 {
		fatal(logger, "koalad: -parallel must be at least 1 simulation worker; omit the flag for one per CPU", "got", *par)
	}
	if *maxRuns < 1 {
		fatal(logger, "koalad: -max-runs must be at least 1", "got", *maxRuns)
	}
	if *queue < 1 {
		fatal(logger, "koalad: -queue must be at least 1", "got", *queue)
	}
	if *retain < 1 {
		fatal(logger, "koalad: -retain must be at least 1", "got", *retain)
	}
	if *role != "coordinator" && *role != "worker" {
		fatal(logger, "koalad: -role must be coordinator or worker", "got", *role)
	}
	if *role == "worker" && *workers != "" {
		fatal(logger, "koalad: -role worker cannot dispatch; drop -workers (a worker must never re-forward runs)")
	}
	var be backend.Backend
	if *workers != "" {
		rb, err := backend.NewRemote(backend.RemoteOptions{
			Workers:          strings.Split(*workers, ","),
			Log:              logger,
			Metrics:          metrics,
			Retry:            backend.RetryPolicy{MaxRetries: *workerRetryMax},
			IdleEventTimeout: *workerTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			HealthInterval:   *healthInterval,
		})
		if err != nil {
			fatal(logger, "koalad: bad -workers", "err", err)
		}
		defer rb.Close()
		be = rb
		logger.Info("koalad: dispatching to workers",
			"count", len(rb.Workers()), "workers", strings.Join(rb.Workers(), ", "),
			"retry_max", *workerRetryMax, "breaker_threshold", *breakerThreshold)
	}
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{Fsync: *storeFsync, Log: logger, Metrics: metrics})
		if err != nil {
			fatal(logger, "koalad: opening data dir", "dir", *dataDir, "err", err)
		}
		defer st.Close()
	}
	srv := server.New(server.Options{
		Parallelism:   *par,
		MaxConcurrent: *maxRuns,
		QueueDepth:    *queue,
		MaxRetained:   *retain,
		Version:       buildinfo.Version(),
		EnablePprof:   *enablePprof,
		Store:         st,
		Backend:       be,
		Role:          *role,
		Log:           logger,
		Metrics:       metrics,
	})
	if st != nil {
		rec, err := srv.Recover()
		if err != nil {
			fatal(logger, "koalad: recovery failed", "dir", *dataDir, "err", err)
		}
		logger.Info("koalad: recovered", "dir", *dataDir, "stats", rec.String())
		runGC := func() {
			if *storeMaxBytes == 0 && *storeMaxAge == 0 {
				return
			}
			res, err := st.GC(*storeMaxBytes, *storeMaxAge)
			if err != nil {
				logger.Warn("koalad: store gc failed", "err", err)
				return
			}
			if res.Removed > 0 {
				logger.Info("koalad: store gc",
					"removed", res.Removed, "removed_bytes", res.RemovedBytes,
					"entries", res.Entries, "bytes", res.Bytes)
			}
		}
		runGC()
		if *storeGCInterval > 0 && (*storeMaxBytes != 0 || *storeMaxAge != 0) {
			gcDone := make(chan struct{})
			defer close(gcDone)
			go func() {
				ticker := time.NewTicker(*storeGCInterval)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						runGC()
					case <-gcDone:
						return
					}
				}
			}()
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("koalad: listening",
			"build", buildinfo.String("koalad"), "addr", *addr, "max_runs", *maxRuns, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		logger.Info("koalad: draining on signal", "signal", sig.String(), "timeout", drainTimeout.String())
	case err := <-errCh:
		fatal(logger, "koalad: serve failed", "err", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Refuse new submissions and drain admitted runs first, then close
	// the listener and any streaming connections.
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("koalad: drain incomplete, in-flight runs aborted", "err", err)
	} else {
		logger.Info("koalad: drained all in-flight runs")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("koalad: http shutdown failed", "err", err)
	}
	logger.Info("koalad: bye")
}
