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
	// PollInterval is the scheduler/manager polling period (default 15 s).
	PollInterval float64
	// SamplePeriod is the utilisation sampling period (default 10 s).
	SamplePeriod float64
	// GrowthReserve keeps processors per cluster for local users (§V-B).
	GrowthReserve int
	// Horizon bounds each run's virtual time (default: submission span
	// plus a generous drain window).
	Horizon float64
	// Grid overrides the testbed (default DAS-3); used by small tests.
	// The closure runs once per replication, possibly from concurrent
	// worker goroutines, and once in SpecFromConfig (and so Fingerprint),
	// so it must build a fresh Multicluster on every call — returning a
	// shared cached instance would race.
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
	// SimStats, when non-nil, collects kernel and manager statistics
	// (events scheduled/fired/canceled, peak pending, grow/shrink
	// decisions) across the config's replications: each replication adds
	// its totals once, when it ends. It is observability only: it never
	// changes results and is excluded from the fingerprint, so a config
	// with and without it is the same experiment. Local execution only —
	// it does not cross the wire to remote backends.
	SimStats *obs.SimStats
}

// validate rejects out-of-range fields. It runs before withDefaults,
// which would otherwise turn a negative value into its default.
func (c Config) validate() error {
	if c.Runs < 0 {
		return fmt.Errorf("experiment: negative runs %d", c.Runs)
	}
	if c.PollInterval < 0 || c.SamplePeriod < 0 || c.Horizon < 0 {
		return fmt.Errorf("experiment: negative interval in config")
	}
	if c.GrowthReserve < 0 {
		return fmt.Errorf("experiment: negative growth reserve %d", c.GrowthReserve)
	}
	if g := c.GramOverride; g != nil && (g.SubmitLatency < 0 || g.ReleaseLatency < 0 || g.SubmitConcurrency < 0) {
		return fmt.Errorf("experiment: negative gram override field")
	}
	return nil
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
	Seed uint64
	// Records holds the run's finished jobs in finishing order. In a
	// batch Result it is the run's window of Result.Pooled, capped at
	// its length, so appending to it copies instead of overwriting the
	// next run's records.
	Records  []metrics.JobRecord
	Rejected int
	// Utilization is the sampled series of used processors. Only a run
	// that may be plotted keeps it: Runs[0] of a batch Result, which
	// FigUtilization draws, and the result of Prepared.RunOnce (and so
	// of RunOnce). It is nil for the other runs of a batch and for every
	// streamed replication.
	Utilization *stats.TimeSeries
	// MeanUtilization is the time-averaged number of used processors
	// over [0, Makespan], or 0 when Makespan is 0, folded as the series
	// was sampled: Utilization.MeanOver(0, Makespan) bit for bit.
	MeanUtilization float64
	GrowOps         *stats.TimeSeries
	ShrinkOps       *stats.TimeSeries
	Makespan        float64
	TotalOps        float64
}

// Result pools the runs of one experiment point.
type Result struct {
	Config Config
	Runs   []*RunResult
	// Pooled concatenates the per-run job records (the paper's CDFs are
	// computed over all jobs of all runs of a combination). It is the one
	// copy of them: each Runs[i].Records is its window of Pooled.
	Pooled []metrics.JobRecord
}

// Run executes cfg.Runs seeded runs and pools their records. The runs are
// independent (run i is seeded Seed+i and builds its own engine), so they
// execute on a bounded pool of cfg.Parallelism workers; the pooled
// records are in the same order as a serial loop.
func Run(cfg Config) (*Result, error) {
	return runBatch(context.Background(), cfg, parallel.NewLimiter(cfg.Parallelism))
}

// runBatch is runPoint with the batch sink: it keeps every replication's
// RunResult, records and all, for the CDF figures. Each record is written
// once: replication i's collector appends into window i of one backing of
// Runs × Jobs records, which becomes Pooled.
func runBatch(ctx context.Context, cfg Config, lim parallel.Limiter) (*Result, error) {
	prep, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	cfg = prep.Config()
	pooled := make([]metrics.JobRecord, cfg.Runs*cfg.Workload.Jobs)
	runs, err := runPoint(ctx, prep, lim, nil, pooled, func(_ int, r *RunResult) *RunResult { return r })
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Runs: runs, Pooled: packRecords(pooled, runs)}, nil
}

// packRecords closes, front to back, the gaps that short replications
// (rejected jobs) left between the runs' windows of pooled, and points
// each run's Records at its part of the packed prefix, capped at its
// length. It returns that prefix: the in-order concatenation of the
// runs' records, copied only past a gap.
func packRecords(pooled []metrics.JobRecord, runs []*RunResult) []metrics.JobRecord {
	n := 0
	for _, r := range runs {
		k := len(r.Records)
		if k > 0 && &r.Records[0] != &pooled[n] {
			copy(pooled[n:], r.Records)
		}
		r.Records = pooled[n : n+k : n+k]
		n += k
	}
	return pooled[:n:n]
}

// runPoint is the one replication loop behind every driver, batch and
// streaming. The replications share prep's immutable setup and differ
// only in their seeds; runPoint runs them on lim and hands replication
// i's result to sink, whose return value fills slot i of the output. The
// output is therefore in replication order for any parallelism. Sink
// calls for distinct replications may run concurrently.
//
// pooled, when non-nil, holds Runs × Jobs records, and replication i's
// collector appends into window i, [i·Jobs, (i+1)·Jobs). Each job
// finishes at most once, so no window overflows, and the replications
// write disjoint parts of it. Replication 0 of such a batch also keeps
// its utilisation series, which FigUtilization plots. The streaming
// path passes nil: each replication's records get a buffer of their own
// and die with it, and no replication keeps its series.
//
// A panicking replication (or sink, or hook) becomes an error naming the
// replication instead of unwinding its worker goroutine: koalad runs
// this loop, and one bad run may fail but never take the daemon down.
func runPoint[T any](ctx context.Context, prep *Prepared, lim parallel.Limiter,
	onStart func(rep int, seed uint64), pooled []metrics.JobRecord, sink func(i int, r *RunResult) T) ([]T, error) {
	cfg := prep.Config()
	jobs := cfg.Workload.Jobs
	out := make([]T, cfg.Runs)
	err := parallel.ForEachShared(ctx, cfg.Runs, lim, func(_ context.Context, i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiment %s: replication %d panicked: %v\n%s", cfg.Name, i, p, debug.Stack())
			}
		}()
		seed := cfg.Seed + uint64(i)
		if onStart != nil {
			onStart(i, seed)
		}
		var recs []metrics.JobRecord
		if pooled != nil {
			recs = pooled[i*jobs : i*jobs : (i+1)*jobs]
		}
		r, err := prep.runOnce(seed, recs, pooled != nil && i == 0)
		if err != nil {
			return err
		}
		out[i] = sink(i, r)
		return nil
	})
	return out, err
}

// sweep runs every combo point of an approach at once and returns run's
// results in combo order. Bounding the actual concurrency is run's job:
// a replication limiter shared by the points, or the worker daemons of a
// remote backend. base is range-checked first: ComboConfigs resolves
// defaults, which would rewrite a bad field before Prepare saw it.
func sweep[T any](ctx context.Context, approach string, combos []Combo, base Config, run func(context.Context, Config) (T, error)) ([]T, error) {
	if err := base.validate(); err != nil {
		return nil, err
	}
	cfgs := ComboConfigs(approach, combos, base)
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

// MeanUtilization averages the time-averaged utilisation over the runs,
// evaluated over each run's active span.
func (r *Result) MeanUtilization() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, run := range r.Runs {
		sum += run.MeanUtilization
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
