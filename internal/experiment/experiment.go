// Package experiment wires the full stack — workloads, KOALA, the
// malleability manager and the metrics collector — into repeatable
// experiments, one per table/figure of the paper's evaluation (§VI–VII).
// Each experiment point averages several independent seeded runs, as the
// paper does ("we have done 4 runs for each combination").
package experiment

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one experiment point: a workload under a malleability
// policy and a job-management approach.
type Config struct {
	Name string
	// Workload is the workload spec; its Seed is overridden per run.
	Workload workload.Spec
	// Policy is FPSMA, EGS, EQUI or FOLD.
	Policy string
	// Approach is PRA or PWA.
	Approach string
	// Placement names the KOALA placement policy (default WF).
	Placement string
	// Runs is the number of independent runs to pool (default 4).
	Runs int
	// Parallelism bounds the number of concurrently executing simulations:
	// Run runs the point's seeded replications on a pool of this size,
	// and a sweep (RunSet, RunSetStream) runs all its points at once,
	// drawing their replications from one shared budget of this size. 0
	// means one worker per CPU; 1 runs serially. Results are identical to
	// serial execution for any value: each run owns its seed and its
	// engine, and every replication writes into its own ordered slot.
	Parallelism int
	// Seed is the base seed; run i uses Seed+i.
	Seed uint64
	// PollInterval is the scheduler/manager polling period (default 5 s).
	PollInterval float64
	// SamplePeriod is the utilisation sampling period (default 10 s).
	SamplePeriod float64
	// GrowthReserve keeps processors per cluster for local users (§V-B).
	GrowthReserve int
	// Horizon bounds each run's virtual time (default: submission span
	// plus a generous drain window).
	Horizon float64
	// Grid overrides the testbed (default DAS-3); used by small tests.
	// The closure runs once per Prepare (a topology probe) and once per
	// replication, possibly from concurrent worker goroutines, so it must
	// build a fresh Multicluster on every call — returning a shared
	// cached instance would race.
	Grid func() *cluster.Multicluster
	// GramOverride replaces the default GRAM latency model (ablations).
	GramOverride *gram.Config
	// Background adds bypassing local users (§V-B). When nil, the shared
	// DAS-3 conditions of DefaultBackground are used; set NoBackground for
	// a dedicated (idle) testbed.
	Background *workload.BackgroundSpec
	// NoBackground disables background load entirely.
	NoBackground bool
	// DisableMalleability runs plain KOALA (rigid baseline comparisons).
	DisableMalleability bool
	// SimStats, when non-nil, passively collects kernel and manager
	// statistics (events scheduled/fired/canceled, peak pending,
	// grow/shrink decisions) across the config's replications. It is
	// observability only: it never changes results and is excluded from
	// the fingerprint, so a config with and without it is the same
	// experiment. Local execution only — it does not cross the wire to
	// remote backends.
	SimStats *obs.SimStats
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "FPSMA"
	}
	if c.Approach == "" {
		c.Approach = "PRA"
	}
	if c.Placement == "" {
		c.Placement = "WF"
	}
	if c.Runs <= 0 {
		c.Runs = 4
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 15
	}
	if c.SamplePeriod <= 0 {
		c.SamplePeriod = 10
	}
	if c.Horizon <= 0 {
		span := float64(c.Workload.Jobs) * c.Workload.InterArrival
		c.Horizon = span + 40000
	}
	if c.Grid == nil {
		c.Grid = cluster.DAS3
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s/%s/%s", c.Approach, c.Policy, c.Workload.Name)
	}
	if c.Background == nil && !c.NoBackground {
		bg := DefaultBackground()
		c.Background = &bg
	}
	return c
}

// DefaultBackground models the concurrent DAS-3 users during the paper's
// PRA experiments, who bypass KOALA and whose activity KOALA discovers only
// by polling (§V-B, §VI-C): a moderate load that "does not disturb the
// measures" (§VI-C).
func DefaultBackground() workload.BackgroundSpec {
	return workload.BackgroundSpec{MeanInterArrival: 240, MeanDuration: 480, MaxNodes: 24}
}

// PWABackground models the busier shared-testbed conditions under which the
// PWA experiments operate: §VII-B requires the system load to be high
// enough that mandatory shrinks actually happen ("if the system load is
// low, no job is shrunk and PWA behaves like PRA"). The W' workloads halve
// the inter-arrival time *and* the paper's runs competed with heavy
// concurrent usage; this preset recreates that regime.
func PWABackground() workload.BackgroundSpec {
	return workload.BackgroundSpec{MeanInterArrival: 90, MeanDuration: 1200, MaxNodes: 48}
}

// RunResult is the outcome of a single seeded run.
type RunResult struct {
	Seed        uint64
	Records     []metrics.JobRecord
	Rejected    int
	Utilization *stats.TimeSeries
	GrowOps     *stats.TimeSeries
	ShrinkOps   *stats.TimeSeries
	Makespan    float64
	TotalOps    float64
}

// Result pools the runs of one experiment point.
type Result struct {
	Config Config
	Runs   []*RunResult
	// Pooled concatenates the per-run job records (the paper's CDFs are
	// computed over all jobs of all runs of a combination).
	Pooled []metrics.JobRecord
}

// RunOnce executes one seeded run. It is Prepare followed by a single
// Prepared.RunOnce — the batched path through Prepared is the same code,
// so both modes produce byte-identical results for the same config and
// seed.
func RunOnce(cfg Config, seed uint64) (*RunResult, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunOnce(seed)
}

func lastEnd(recs []metrics.JobRecord) float64 {
	end := 0.0
	for _, r := range recs {
		if r.EndTime > end {
			end = r.EndTime
		}
	}
	return end
}

// Run executes cfg.Runs seeded runs and pools their records. The runs are
// independent (run i is seeded Seed+i and builds its own engine), so they
// execute on a bounded pool of cfg.Parallelism workers; the pooled
// records are in the same order as a serial loop.
func Run(cfg Config) (*Result, error) {
	return runBatch(context.Background(), cfg, parallel.NewLimiter(cfg.Parallelism))
}

// runBatch is runPoint with the batch sink: it keeps every replication's
// RunResult, records and all, for the CDF figures.
func runBatch(ctx context.Context, cfg Config, lim parallel.Limiter) (*Result, error) {
	cfg, runs, err := runPoint(ctx, cfg, lim, nil, func(_ int, r *RunResult) *RunResult { return r })
	if err != nil {
		return nil, err
	}
	out := &Result{Config: cfg, Runs: runs}
	for _, r := range runs {
		out.Pooled = append(out.Pooled, r.Records...)
	}
	return out, nil
}

// runPoint is the one replication loop behind every driver, batch and
// streaming. It prepares cfg once — the replications share the immutable
// setup and differ only in their seeds — then runs the point's seeded
// replications on lim and hands replication i's result to sink, whose
// return value fills slot i of the output. The output is therefore in
// replication order for any parallelism. Sink calls for distinct
// replications may run concurrently.
//
// A panicking replication (or sink, or hook) becomes an error naming the
// replication instead of unwinding its worker goroutine: koalad runs
// this loop, and one bad run may fail but never take the daemon down.
func runPoint[T any](ctx context.Context, cfg Config, lim parallel.Limiter,
	onStart func(rep int, seed uint64), sink func(i int, r *RunResult) T) (Config, []T, error) {
	prep, err := Prepare(cfg)
	if err != nil {
		return cfg, nil, err
	}
	cfg = prep.Config()
	out := make([]T, cfg.Runs)
	err = parallel.ForEachShared(ctx, cfg.Runs, lim, func(_ context.Context, i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiment %s: replication %d panicked: %v\n%s", cfg.Name, i, p, debug.Stack())
			}
		}()
		seed := cfg.Seed + uint64(i)
		if onStart != nil {
			onStart(i, seed)
		}
		r, err := prep.RunOnce(seed)
		if err != nil {
			return err
		}
		out[i] = sink(i, r)
		return nil
	})
	return cfg, out, err
}

// sweep runs every point of a sweep at once and returns run's results
// in point order. Bounding the actual concurrency is run's job: a
// replication limiter shared by the points, or the worker daemons of a
// remote backend.
func sweep[T any](ctx context.Context, cfgs []Config, run func(context.Context, Config) (T, error)) ([]T, error) {
	out := make([]T, len(cfgs))
	err := parallel.ForEach(ctx, len(cfgs), len(cfgs), func(ctx context.Context, c int) (err error) {
		out[c], err = run(ctx, cfgs[c])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MalleableRecords returns the pooled records restricted to malleable jobs
// (the population whose sizes Figs. 7a/b and 8a/b report).
func (r *Result) MalleableRecords() []metrics.JobRecord {
	return metrics.OnlyMalleable(r.Pooled)
}

// MeanUtilization averages the time-averaged utilisation over the runs,
// evaluated over each run's active span.
func (r *Result) MeanUtilization() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, run := range r.Runs {
		if run.Makespan > 0 {
			sum += run.Utilization.MeanOver(0, run.Makespan)
		}
	}
	return sum / float64(len(r.Runs))
}

// MeanResponse returns the mean response time over pooled records.
func (r *Result) MeanResponse() float64 {
	return stats.Mean(metrics.ResponseTimesOf(r.Pooled))
}

// MeanExecution returns the mean execution time over pooled records.
func (r *Result) MeanExecution() float64 {
	return stats.Mean(metrics.ExecTimesOf(r.Pooled))
}

// TotalOps averages the number of malleability operations per run.
func (r *Result) TotalOps() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, run := range r.Runs {
		sum += run.TotalOps
	}
	return sum / float64(len(r.Runs))
}
