package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Prepared is the share-once half of an experiment point: every piece of
// RunOnce's setup that does not depend on the replication seed — resolved
// policy/approach/placement lookups, the GRAM latency model and the
// prepared workload spec (rendered IDs, resolved profiles). One Prepared
// is built per sweep point and reused read-only by all of its
// replications; per-replication state (engine, grid, sites, scheduler, RNG
// streams) is still built fresh per seed, so results are byte-identical to
// the single-shot RunOnce path — which is in fact the same code: RunOnce
// is Prepare followed by one Prepared.RunOnce.
//
// A Prepared is immutable after Prepare returns and safe for concurrent
// use by parallel replication workers.
type Prepared struct {
	cfg Config

	pol     core.Policy
	apr     core.Approach
	place   koala.PlacementPolicy
	gramCfg gram.Config
	wl      *workload.PreparedSpec

	// span is the measured workload's nominal submission window,
	// Jobs × InterArrival, used to schedule the background-load stop.
	span float64
}

// Prepare validates cfg, applies defaults and precomputes the
// seed-independent setup. The returned Prepared serves any number of
// replications via Prepared.RunOnce.
func Prepare(cfg Config) (*Prepared, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	pol, ok := core.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown policy %q", cfg.Policy)
	}
	apr, ok := core.ApproachByName(cfg.Approach)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown approach %q", cfg.Approach)
	}
	place, err := koala.PolicyByName(cfg.Placement)
	if err != nil {
		return nil, err
	}
	wl, err := workload.PrepareSpec(cfg.Workload)
	if err != nil {
		return nil, err
	}
	gramCfg := gram.DefaultConfig()
	if cfg.GramOverride != nil {
		gramCfg = *cfg.GramOverride
	}

	return &Prepared{
		cfg:     cfg,
		pol:     pol,
		apr:     apr,
		place:   place,
		gramCfg: gramCfg,
		wl:      wl,
		span:    float64(cfg.Workload.Jobs) * cfg.Workload.InterArrival,
	}, nil
}

// Config returns the point's config with defaults applied.
func (p *Prepared) Config() Config { return p.cfg }

// RunOnce executes one seeded replication against the prepared setup.
// Everything stateful — engine, grid, sites, scheduler, collector — is
// built fresh for this seed; only the immutable prepared parts are shared.
// The world's memory is handed back to the shared pools when RunOnce
// returns, for the next replication on any goroutine: nothing in the
// RunResult points into it (records are values, and the utilisation and
// op series are allocated outside the world). The records are returned
// in their own buffer, which the caller owns, and the result keeps its
// utilisation series.
func (p *Prepared) RunOnce(seed uint64) (*RunResult, error) {
	return p.runOnce(seed, nil, true)
}

// runOnce is RunOnce with the collector appending its records to recs, an
// empty window with capacity for every job of the workload; nil gives the
// collector a buffer of its own. keepSeries keeps the sampled utilisation
// series in the result; without it only its time average is kept.
func (p *Prepared) runOnce(seed uint64, recs []metrics.JobRecord, keepSeries bool) (*RunResult, error) {
	cfg := p.cfg
	wl := p.wl.Generate(seed)

	sys := core.NewSystem(core.SystemConfig{
		Grid: cfg.Grid(),
		Gram: p.gramCfg,
		Scheduler: koala.Config{
			Policy:        p.place,
			PollInterval:  cfg.PollInterval,
			MRunnerConfig: runner.DefaultMRunnerConfig(),
		},
		Manager: core.ManagerConfig{
			Policy:        p.pol,
			Approach:      p.apr,
			GrowthReserve: cfg.GrowthReserve,
		},
		DisableManager: cfg.DisableMalleability,
	})
	defer sys.Teardown()
	if cfg.SimStats != nil {
		// Deferred calls run last in, first out: the fold reads the
		// world before Teardown releases it.
		defer addSimStats(cfg.SimStats, sys)
	}
	col := metrics.NewCollector(sys.Engine, sys.Scheduler, sys.Grid, cfg.SamplePeriod)
	if recs == nil {
		recs = make([]metrics.JobRecord, 0, cfg.Workload.Jobs)
	}
	col.Reserve(recs)
	// Local users stop arriving a little after the measured workload's
	// last submission so runs can drain (running sessions still
	// terminate normally). Under Poisson arrivals that submission may
	// come after the nominal window.
	stop := max(p.span, wl.Duration()) + 2000
	if keepSeries {
		col.KeepUtilization(int(stop/cfg.SamplePeriod) + 2)
	}

	if cfg.Background != nil {
		bgSpec := *cfg.Background
		bgSpec.Seed = seed ^ 0xbadc0ffee
		bg, err := workload.StartBackground(sys.Engine, sys.Grid, bgSpec)
		if err != nil {
			return nil, err
		}
		sys.Engine.AtOp(stop, bg, 0)
	}

	sub := workload.Submit(sys.Engine, wl, func(js koala.JobSpec) error {
		_, err := sys.Scheduler.Submit(js)
		return err
	})
	arriving := func() bool { return sub.Submitted()+len(sub.Errs()) < len(wl.Items) }

	if err := sys.RunUntilDone(cfg.Horizon, arriving); err != nil {
		return nil, fmt.Errorf("experiment %s (seed %d): %w", cfg.Name, seed, err)
	}
	col.Stop()
	if len(sub.Errs()) > 0 {
		return nil, fmt.Errorf("experiment %s: %d submission errors, first: %v", cfg.Name, len(sub.Errs()), sub.Errs()[0])
	}

	res := &RunResult{
		Seed:            seed,
		Records:         col.Records(),
		Rejected:        len(col.Rejected()),
		Utilization:     col.Utilization(),
		MeanUtilization: col.MeanUtilization(),
		Makespan:        col.Makespan(),
	}
	if sys.Manager != nil {
		res.GrowOps = sys.Manager.GrowOps().Series()
		res.ShrinkOps = sys.Manager.ShrinkOps().Series()
		res.TotalOps = sys.Manager.GrowOps().Total() + sys.Manager.ShrinkOps().Total()
	} else {
		res.GrowOps = stats.NewTimeSeries()
		res.ShrinkOps = stats.NewTimeSeries()
	}
	return res, nil
}

// addSimStats adds one replication's totals to st, read from the
// counters the engine and the manager keep whether or not anyone
// collects them.
func addSimStats(st *obs.SimStats, sys *core.System) {
	e := sys.Engine
	r := obs.SimStatsSnapshot{
		EventsScheduled: int64(e.Scheduled()),
		EventsFired:     int64(e.Fired()),
		EventsCanceled:  int64(e.Canceled()),
		PendingPeak:     int64(e.PendingPeak()),
		SimHorizon:      e.Now(),
	}
	if m := sys.Manager; m != nil {
		r.GrowDecisions = int64(m.GrowOps().Total())
		r.ShrinkDecisions = int64(m.ShrinkOps().Total())
	}
	st.Add(r)
}
