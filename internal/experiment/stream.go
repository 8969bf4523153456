package experiment

import (
	"context"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file is the streaming sink of runPoint: the same seeded
// replications on the same pool as Run, but each replication's job
// records are folded into a constant-memory metrics.Aggregate and
// dropped as soon as the replication ends. Nothing proportional to the
// job count survives a replication, which is what lets koalad hold many
// concurrent sweeps, and what the -stream flag of the batch CLIs
// exposes for very large runs. Aggregates are merged in replication
// order, so the output is deterministic for a given config and seed
// regardless of parallelism.

// Replication is the compact summary of one completed replication —
// what koalad streams as a progress event, and all that RunStream
// retains per replication.
type Replication struct {
	// Rep is the replication index in [0, Runs); its seed is
	// Config.Seed + Rep.
	Rep  int    `json:"rep"`
	Seed uint64 `json:"seed"`

	Jobs      int     `json:"jobs"`
	Malleable int     `json:"malleable"`
	Rejected  int     `json:"rejected"`
	Makespan  float64 `json:"makespan"`
	// MeanUtilization is the time-averaged processor utilisation over
	// the replication's active span.
	MeanUtilization float64 `json:"mean_utilization"`
	// Ops is the total number of malleability operations.
	Ops float64 `json:"ops"`

	MeanExecution float64 `json:"mean_execution"`
	MeanResponse  float64 `json:"mean_response"`
}

// StreamResult pools the replications of one experiment point without
// retaining per-job records: exact counts and moments plus
// sketch-backed quantiles (see metrics.Aggregate), held in the point's
// wire summary.
type StreamResult struct {
	Config       Config
	Replications []Replication

	// sum is built once when the replication aggregates merge, or
	// received verbatim from a remote backend.
	sum StreamSummary
}

// StreamResultFromSummary rebuilds a StreamResult from its wire
// summary — how a remote backend's result re-enters the driver layer.
// Summary() returns sum unchanged, so EncodeSummary over the rebuilt
// result is byte-identical to the bytes the worker produced.
func StreamResultFromSummary(cfg Config, sum StreamSummary) *StreamResult {
	return &StreamResult{Config: cfg, Replications: sum.Replications, sum: sum}
}

// summarizeReplication reduces a full RunResult to its compact form
// plus the per-field aggregate, after which the records are garbage.
func summarizeReplication(i int, r *RunResult) (Replication, *metrics.Aggregate) {
	agg := metrics.NewAggregate()
	agg.ObserveAll(r.Records)
	rep := Replication{
		Rep:             i,
		Seed:            r.Seed,
		Jobs:            agg.Jobs,
		Malleable:       agg.Malleable,
		Rejected:        r.Rejected,
		Makespan:        r.Makespan,
		MeanUtilization: r.MeanUtilization,
		Ops:             r.TotalOps,
		MeanExecution:   agg.MeanExecution(),
		MeanResponse:    agg.MeanResponse(),
	}
	return rep, agg
}

// StreamHooks observe a streaming run's replications. Both hooks are
// optional and are invoked from worker goroutines — possibly
// concurrently — so implementations must synchronize their own state
// (koalad's event log and gauges do).
type StreamHooks struct {
	// OnStart fires when a replication's simulation begins.
	OnStart func(rep int, seed uint64)
	// OnDone fires once per completed replication, in completion order.
	OnDone func(Replication)
}

// RunStream executes cfg.Runs seeded replications like Run, but streams
// each replication through an aggregate instead of pooling records.
func RunStream(cfg Config) (*StreamResult, error) {
	return RunStreamContext(context.Background(), cfg, StreamHooks{})
}

// RunStreamContext is RunStream with cancellation and progress hooks,
// on a pool of cfg.Parallelism workers. The returned result merges the
// replication aggregates in replication order, so it is identical for
// any parallelism.
func RunStreamContext(ctx context.Context, cfg Config, hooks StreamHooks) (*StreamResult, error) {
	return runStream(ctx, cfg, parallel.NewLimiter(cfg.Parallelism), hooks)
}

// runStream is runPoint with the streaming sink: each replication is
// reduced to its Replication plus an aggregate of its records, reported
// through hooks.OnDone, and the aggregates merge in replication order.
func runStream(ctx context.Context, cfg Config, lim parallel.Limiter, hooks StreamHooks) (*StreamResult, error) {
	type streamed struct {
		rep Replication
		agg *metrics.Aggregate
	}
	prep, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	cfg = prep.Config()
	reps, err := runPoint(ctx, prep, lim, hooks.OnStart, nil, func(i int, r *RunResult) streamed {
		rep, agg := summarizeReplication(i, r)
		if hooks.OnDone != nil {
			hooks.OnDone(rep)
		}
		return streamed{rep, agg}
	})
	if err != nil {
		return nil, err
	}
	agg := metrics.NewAggregate()
	out := &StreamResult{Config: cfg, Replications: make([]Replication, len(reps))}
	util, ops, rejected := 0.0, 0.0, 0
	for i, s := range reps {
		out.Replications[i] = s.rep
		agg.Merge(s.agg)
		util += s.rep.MeanUtilization
		ops += s.rep.Ops
		rejected += s.rep.Rejected
	}
	// Per-replication means, as the batch Result.MeanUtilization and
	// Result.TotalOps compute them (cfg.Runs >= 1 after Prepare).
	n := float64(len(reps))
	out.sum = StreamSummary{
		Name:            cfg.Name,
		Runs:            len(reps),
		Jobs:            agg.Jobs,
		Malleable:       agg.Malleable,
		Rejected:        rejected,
		MeanUtilization: util / n,
		OpsPerRun:       ops / n,
		Exec:            agg.Exec.Summary(),
		Response:        agg.Response.Summary(),
		AvgProcs:        agg.AvgProcs.Summary(),
		MaxProcs:        agg.MaxProcs.Summary(),
		Replications:    out.Replications,
	}
	return out, nil
}

// RunSetStream is the streaming counterpart of RunSet: the combo points
// run at once and draw their replications from one limiter of
// base.Parallelism, exactly like the batch sweep, returning one
// StreamResult per combo, in combo order.
func RunSetStream(ctx context.Context, approach string, combos []Combo, base Config) ([]*StreamResult, error) {
	lim := parallel.NewLimiter(base.Parallelism)
	return sweep(ctx, approach, combos, base, func(ctx context.Context, cfg Config) (*StreamResult, error) {
		return runStream(ctx, cfg, lim, StreamHooks{})
	})
}

// Jobs returns the number of finished jobs over all replications.
func (r *StreamResult) Jobs() int { return r.sum.Jobs }

// Rejected returns the number of rejected jobs over all replications.
func (r *StreamResult) Rejected() int { return r.sum.Rejected }

// MeanUtilization averages the per-replication utilisation, exactly as
// the batch Result.MeanUtilization does.
func (r *StreamResult) MeanUtilization() float64 { return r.sum.MeanUtilization }

// TotalOps averages the malleability operations per replication,
// exactly as the batch Result.TotalOps does.
func (r *StreamResult) TotalOps() float64 { return r.sum.OpsPerRun }

// MeanExecution returns the mean execution time over all jobs.
func (r *StreamResult) MeanExecution() float64 { return r.sum.Exec.Mean }

// MeanResponse returns the mean response time over all jobs.
func (r *StreamResult) MeanResponse() float64 { return r.sum.Response.Mean }

// StreamSummary is the JSON form of a finished streaming experiment:
// koalad's terminal event, its GET /v1/experiments/{id} body, and the
// cached value of the result cache.
type StreamSummary struct {
	Name      string `json:"name"`
	Runs      int    `json:"runs"`
	Jobs      int    `json:"jobs"`
	Malleable int    `json:"malleable"`
	Rejected  int    `json:"rejected"`

	MeanUtilization float64 `json:"mean_utilization"`
	OpsPerRun       float64 `json:"ops_per_run"`

	// Exec/Response summarize all jobs; AvgProcs/MaxProcs the malleable
	// subset. Moments are exact, quantiles carry the sketch's relative
	// error.
	Exec     stats.Summary `json:"exec"`
	Response stats.Summary `json:"response"`
	AvgProcs stats.Summary `json:"avg_procs"`
	MaxProcs stats.Summary `json:"max_procs"`

	Replications []Replication `json:"replications"`
}

// Summary returns the result in its wire form. For a remotely executed
// point it is the worker's summary verbatim, so its EncodeSummary bytes
// are exactly what the worker persisted.
func (r *StreamResult) Summary() StreamSummary { return r.sum }
