package metrics

import (
	"repro/internal/stats"
)

// Aggregate is the streaming counterpart of a pooled []JobRecord: it
// folds finished-job records into constant-memory accumulators (exact
// moments plus quantile sketches, see stats.Stream) so the koalad
// server and the -stream CLI mode can summarize arbitrarily large
// sweeps without retaining per-job records. Aggregates from independent
// replications Merge deterministically when merged in a fixed order.
type Aggregate struct {
	// Jobs counts every observed record; Malleable the malleable subset.
	Jobs      int
	Malleable int

	// Exec and Response summarize all jobs (the populations of Figs.
	// 7c/d and 8c/d).
	Exec     *stats.Stream
	Response *stats.Stream

	// AvgProcs and MaxProcs summarize malleable jobs only (the
	// populations of Figs. 7a/b and 8a/b).
	AvgProcs *stats.Stream
	MaxProcs *stats.Stream
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		Exec:     stats.NewStream(),
		Response: stats.NewStream(),
		AvgProcs: stats.NewStream(),
		MaxProcs: stats.NewStream(),
	}
}

// Observe folds one record into the aggregate.
func (a *Aggregate) Observe(r JobRecord) {
	a.Jobs++
	a.Exec.Add(r.ExecutionTime)
	a.Response.Add(r.ResponseTime)
	if r.Malleable {
		a.Malleable++
		a.AvgProcs.Add(r.AvgProcs)
		a.MaxProcs.Add(float64(r.MaxProcs))
	}
}

// ObserveAll folds a record slice in order.
func (a *Aggregate) ObserveAll(recs []JobRecord) {
	for _, r := range recs {
		a.Observe(r)
	}
}

// Merge folds another aggregate into a. Merging replication aggregates
// in replication order yields deterministic results.
func (a *Aggregate) Merge(b *Aggregate) {
	if b == nil {
		return
	}
	a.Jobs += b.Jobs
	a.Malleable += b.Malleable
	a.Exec.Merge(b.Exec)
	a.Response.Merge(b.Response)
	a.AvgProcs.Merge(b.AvgProcs)
	a.MaxProcs.Merge(b.MaxProcs)
}

// MeanExecution returns the mean execution time over observed jobs.
func (a *Aggregate) MeanExecution() float64 { return a.Exec.Online.Mean() }

// MeanResponse returns the mean response time over observed jobs.
func (a *Aggregate) MeanResponse() float64 { return a.Response.Online.Mean() }
