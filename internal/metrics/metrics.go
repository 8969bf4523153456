// Package metrics collects everything the paper's figures report: per-job
// records (average/maximum processor counts over the execution, execution
// and response times — Figs. 7a–d and 8a–d), the platform utilisation over
// time (Figs. 7e, 8e), and exports to CSV.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/koala"
	"repro/internal/sim"
	"repro/internal/stats"
)

// JobRecord captures one finished job's metrics.
type JobRecord struct {
	ID        string
	App       string
	Malleable bool
	Site      string

	SubmitTime float64
	StartTime  float64
	EndTime    float64

	// ExecutionTime is EndTime − StartTime (Figs. 7c, 8c).
	ExecutionTime float64
	// ResponseTime is EndTime − SubmitTime (Figs. 7d, 8d).
	ResponseTime float64
	// WaitTime is StartTime − SubmitTime.
	WaitTime float64

	// AvgProcs is the processor count averaged over the execution time
	// (Figs. 7a, 8a).
	AvgProcs float64
	// MaxProcs is the maximum processor count reached (Figs. 7b, 8b).
	MaxProcs int
	// InitProcs is the initial processor count.
	InitProcs int
}

// Collector hooks a scheduler and a grid and accumulates metrics as the
// simulation runs.
type Collector struct {
	records  []JobRecord
	rejected []string

	util    utilFold
	series  *stats.TimeSeries // nil unless KeepUtilization asked for it
	sampler *sim.Ticker
}

// NewCollector attaches a collector to the scheduler's lifecycle callbacks
// and samples grid utilisation every samplePeriod seconds, folding the
// samples into their time average.
func NewCollector(engine *sim.Engine, sched *koala.Scheduler, grid *cluster.Multicluster, samplePeriod float64) *Collector {
	c := &Collector{util: utilFold{t: engine.Now(), v: float64(grid.TotalUsed())}}
	if samplePeriod <= 0 {
		samplePeriod = 10
	}
	c.sampler = sim.NewTicker(engine, samplePeriod, func() {
		t, v := engine.Now(), float64(grid.TotalUsed())
		c.util.add(t, v)
		if c.series != nil {
			c.series.Add(t, v)
		}
	})
	prevFinished := sched.OnJobFinished
	sched.OnJobFinished = func(j *koala.Job) {
		c.observe(j)
		if prevFinished != nil {
			prevFinished(j)
		}
	}
	prevRejected := sched.OnJobRejected
	sched.OnJobRejected = func(j *koala.Job) {
		c.rejected = append(c.rejected, j.Spec.ID)
		if prevRejected != nil {
			prevRejected(j)
		}
	}
	return c
}

// Stop halts utilisation sampling (end of experiment).
func (c *Collector) Stop() { c.sampler.Stop() }

// Reserve hands the collector the buffer its records are appended to,
// so steady-state collection appends without regrowing. recs must be
// empty, with capacity for every job expected to finish; Records returns
// a prefix of it.
func (c *Collector) Reserve(recs []JobRecord) {
	c.records = append(recs, c.records...)
}

// KeepUtilization makes the collector keep the sampled utilisation
// series, with room for samples samples, for Utilization to return.
// Without it only the series' time average is kept. Call it before the
// engine runs, so that the series holds every sample.
func (c *Collector) KeepUtilization(samples int) {
	c.series = stats.NewTimeSeries()
	c.series.Reserve(samples)
	c.series.Add(c.util.t, c.util.v)
}

// observe turns a finished job into a record.
func (c *Collector) observe(j *koala.Job) {
	rec := JobRecord{
		ID:            j.Spec.ID,
		App:           j.Spec.Profile.Name,
		Malleable:     j.Malleable(),
		SubmitTime:    j.SubmitTime(),
		StartTime:     j.StartTime(),
		EndTime:       j.EndTime(),
		ExecutionTime: j.EndTime() - j.StartTime(),
		ResponseTime:  j.EndTime() - j.SubmitTime(),
		WaitTime:      j.StartTime() - j.SubmitTime(),
		InitProcs:     j.Spec.Size,
	}
	if s := j.Site(); s != nil {
		rec.Site = s.Name()
	}
	rec.AvgProcs, rec.MaxProcs = procStats(j)
	c.records = append(c.records, rec)
	c.util.jobEnded(rec.EndTime)
}

// procStats integrates the allocation history of the job's execution.
func procStats(j *koala.Job) (avg float64, maxP int) {
	x := j.Execution()
	if x == nil {
		return 0, 0
	}
	times, procs := x.History()
	if len(times) == 0 {
		return 0, 0
	}
	// Pauses are recorded as 0-processor steps but the processors stay
	// held, so for size statistics carry the previous positive value
	// through pauses (the final 0 marks the finish).
	weighted := 0.0
	span := 0.0
	lastPositive := 0
	for i := 0; i < len(times); i++ {
		p := procs[i]
		if p > 0 {
			lastPositive = p
			if p > maxP {
				maxP = p
			}
		}
		if i+1 < len(times) {
			dt := times[i+1] - times[i]
			use := p
			if use == 0 {
				use = lastPositive
			}
			weighted += float64(use) * dt
			span += dt
		}
	}
	if span <= 0 {
		return float64(maxP), maxP
	}
	return weighted / span, maxP
}

// Records returns all finished-job records.
func (c *Collector) Records() []JobRecord { return c.records }

// Rejected returns the IDs of rejected jobs.
func (c *Collector) Rejected() []string { return c.rejected }

// Utilization returns the sampled total-used-processors series, or nil
// unless KeepUtilization was called.
func (c *Collector) Utilization() *stats.TimeSeries { return c.series }

// Makespan returns the latest end of a finished job, or 0 when none has
// finished.
func (c *Collector) Makespan() float64 { return c.util.end }

// MeanUtilization returns the time-averaged total of used processors
// over [0, Makespan()], or 0 when no job has finished. It equals
// MeanOver(0, Makespan()) of the sampled series bit for bit.
func (c *Collector) MeanUtilization() float64 { return c.util.mean() }

// Field selectors for building CDFs out of records.

// ExecTimesOf extracts ExecutionTime from records.
func ExecTimesOf(recs []JobRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.ExecutionTime
	}
	return out
}

// ResponseTimesOf extracts ResponseTime from records.
func ResponseTimesOf(recs []JobRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.ResponseTime
	}
	return out
}

// WriteCSV exports records as CSV.
func WriteCSV(w io.Writer, recs []JobRecord) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "app", "malleable", "site", "submit", "start", "end", "exec", "response", "wait", "avg_procs", "max_procs", "init_procs"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, r := range recs {
		row := []string{
			r.ID, r.App, fmt.Sprintf("%v", r.Malleable), r.Site,
			f(r.SubmitTime), f(r.StartTime), f(r.EndTime),
			f(r.ExecutionTime), f(r.ResponseTime), f(r.WaitTime),
			f(r.AvgProcs), strconv.Itoa(r.MaxProcs), strconv.Itoa(r.InitProcs),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
