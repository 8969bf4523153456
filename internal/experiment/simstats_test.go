package experiment

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestRunOnceWithSimStats pins that attaching the passive collector (a)
// leaves the run's results byte-identical to an unobserved run and (b)
// actually populates the kernel and manager counters.
func TestRunOnceWithSimStats(t *testing.T) {
	spec := workload.Wm(1)
	spec.Jobs = 30
	base := Config{Name: "simstats", Workload: spec}

	plain, err := runSeed(base, 1)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.SimStats = obs.NewSimStats()
	observed, err := runSeed(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Records, observed.Records) {
		t.Fatal("job records differ with SimStats attached; the collector must be pure observation")
	}
	if plain.Makespan != observed.Makespan || plain.TotalOps != observed.TotalOps {
		t.Fatalf("aggregates differ with SimStats attached: makespan %g vs %g, ops %g vs %g",
			plain.Makespan, observed.Makespan, plain.TotalOps, observed.TotalOps)
	}

	snap := cfg.SimStats.Snapshot()
	if snap.EventsScheduled == 0 || snap.EventsFired == 0 {
		t.Fatalf("collector saw no kernel events: %+v", snap)
	}
	if snap.EventsFired > snap.EventsScheduled {
		t.Fatalf("fired %d > scheduled %d", snap.EventsFired, snap.EventsScheduled)
	}
	if snap.PendingPeak <= 0 {
		t.Fatalf("pending peak = %d, want > 0", snap.PendingPeak)
	}
	if snap.SimHorizon <= 0 {
		t.Fatalf("sim horizon = %g, want > 0", snap.SimHorizon)
	}
	if observed.TotalOps > 0 && snap.GrowDecisions+snap.ShrinkDecisions == 0 {
		t.Fatalf("run performed %g malleability ops but collector saw none", observed.TotalOps)
	}
}

// TestSimStatsExcludedFromFingerprint pins that the collector is a runtime
// attachment, not part of the experiment's identity.
func TestSimStatsExcludedFromFingerprint(t *testing.T) {
	spec := workload.Wm(1)
	spec.Jobs = 30
	base := Config{Name: "simstats", Workload: spec}
	withStats := base
	withStats.SimStats = obs.NewSimStats()
	a, err := Fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(withStats)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fingerprint changed when SimStats attached: %s vs %s", a, b)
	}
}

// TestSimStatsFoldsEachReplicationOnce pins the fold: each replication
// adds its totals once, when it ends, so the decisions equal the
// replications' malleability operations, every schedule has fired, been
// canceled or is still pending, and the totals do not depend on how many
// workers ran the replications.
func TestSimStatsFoldsEachReplicationOnce(t *testing.T) {
	spec := workload.WmPrime(1)
	run := func(parallelism int) (*Result, obs.SimStatsSnapshot) {
		cfg := Config{Name: "fold", Workload: spec, Approach: "PWA", Runs: 3, Parallelism: parallelism, Seed: 7}
		cfg.SimStats = obs.NewSimStats()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.SimStats.Snapshot()
	}
	res, snap := run(2)
	ops, makespan := 0.0, 0.0
	for _, r := range res.Runs {
		ops += r.TotalOps
		makespan = max(makespan, r.Makespan)
	}
	if ops == 0 || snap.ShrinkDecisions == 0 {
		t.Fatalf("%g operations, %d shrink decisions: the point exercises no shrinks", ops, snap.ShrinkDecisions)
	}
	if got := float64(snap.GrowDecisions + snap.ShrinkDecisions); got != ops {
		t.Errorf("grow + shrink decisions = %g, want the runs' operations, %g", got, ops)
	}
	if snap.EventsFired == 0 || snap.EventsScheduled-snap.EventsFired-snap.EventsCanceled < 0 {
		t.Errorf("scheduled %d, fired %d, canceled %d: more resolved than scheduled",
			snap.EventsScheduled, snap.EventsFired, snap.EventsCanceled)
	}
	if snap.SimHorizon < makespan {
		t.Errorf("sim horizon %g ends before the last job, %g", snap.SimHorizon, makespan)
	}
	if _, serial := run(1); serial != snap {
		t.Errorf("serial totals %+v differ from 2-worker totals %+v", serial, snap)
	}
}
