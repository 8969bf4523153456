package experiment

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// TestRunParallelismIsDeterministic is the regression test for the parallel
// sweep engine: for a fixed seed, running the replications serially and on
// an 8-worker pool must produce identical results — same run order, same
// seeds, and value-identical pooled records.
func TestRunParallelismIsDeterministic(t *testing.T) {
	base := Config{
		Workload: smallWorkload("det", 12, 50, 0.5)(1),
		Policy:   "FPSMA",
		Approach: "PWA",
		Grid:     smallGrid,
		Runs:     6,
		Seed:     11,
	}

	serial := base
	serial.Parallelism = 1
	pooled := base
	pooled.Parallelism = 8

	a, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pooled)
	if err != nil {
		t.Fatal(err)
	}

	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i].Seed != b.Runs[i].Seed {
			t.Fatalf("run %d seed: serial %d vs parallel %d", i, a.Runs[i].Seed, b.Runs[i].Seed)
		}
		if a.Runs[i].Makespan != b.Runs[i].Makespan {
			t.Fatalf("run %d makespan: %g vs %g", i, a.Runs[i].Makespan, b.Runs[i].Makespan)
		}
		if a.Runs[i].TotalOps != b.Runs[i].TotalOps {
			t.Fatalf("run %d ops: %g vs %g", i, a.Runs[i].TotalOps, b.Runs[i].TotalOps)
		}
	}
	if len(a.Pooled) != len(b.Pooled) {
		t.Fatalf("pooled lengths differ: %d vs %d", len(a.Pooled), len(b.Pooled))
	}
	for i := range a.Pooled {
		if a.Pooled[i] != b.Pooled[i] {
			t.Fatalf("pooled record %d differs:\nserial:   %+v\nparallel: %+v", i, a.Pooled[i], b.Pooled[i])
		}
	}
}

// TestRunSetParallelismIsDeterministic extends the determinism guarantee to
// the sweep-point fan-out: label order and every combo's pooled records are
// independent of the worker count.
func TestRunSetParallelismIsDeterministic(t *testing.T) {
	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 10, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wm", 10, 40, 1), Label: "EGS/Wm"},
		{Policy: "EQUI", Workload: smallWorkload("Wm", 10, 40, 1), Label: "EQUI/Wm"},
	}
	base := Config{Grid: smallGrid, Runs: 2, Seed: 7}

	serialBase := base
	serialBase.Parallelism = 1
	parallelBase := base
	parallelBase.Parallelism = 8

	a, err := RunSet("PRA", combos, serialBase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSet("PRA", combos, parallelBase)
	if err != nil {
		t.Fatal(err)
	}

	if strings.Join(a.Labels, ",") != strings.Join(b.Labels, ",") {
		t.Fatalf("label order differs: %v vs %v", a.Labels, b.Labels)
	}
	for _, label := range a.Labels {
		ra, rb := a.Results[label], b.Results[label]
		if len(ra.Pooled) != len(rb.Pooled) {
			t.Fatalf("%s: pooled lengths differ: %d vs %d", label, len(ra.Pooled), len(rb.Pooled))
		}
		for i := range ra.Pooled {
			if ra.Pooled[i] != rb.Pooled[i] {
				t.Fatalf("%s: pooled record %d differs", label, i)
			}
		}
	}
}

// TestRunStopsPoolOnFirstFailure checks cancellation: when a replication
// fails (here: a horizon far too short for any job to finish), the pool
// stops dispatching further replications instead of grinding through all
// of them. The Grid hook runs once per started replication, so it counts
// how many RunOnce calls were dispatched.
func TestRunStopsPoolOnFirstFailure(t *testing.T) {
	var started atomic.Int64
	cfg := Config{
		Workload: smallWorkload("stuck", 10, 10, 1)(1),
		Policy:   "FPSMA",
		Approach: "PRA",
		Grid: func() *cluster.Multicluster {
			started.Add(1)
			return smallGrid()
		},
		Runs:        64,
		Parallelism: 4,
		Horizon:     1, // no job can reach a terminal state this early
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run succeeded with an impossible horizon")
	} else if !strings.Contains(err.Error(), "not terminal") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The first failure cancels dispatch; only the replications the 4
	// workers had already picked up (plus at most one racing each worker)
	// may have started.
	if got := started.Load(); got > 16 {
		t.Fatalf("%d of 64 replications started after the first failure", got)
	}
}

// countingGrid returns a Config.Grid that counts its calls and, when
// panicAt > 0, panics on call number panicAt instead of building.
func countingGrid(calls *atomic.Int64, panicAt int64) func() *cluster.Multicluster {
	return func() *cluster.Multicluster {
		if n := calls.Add(1); n == panicAt {
			panic(fmt.Sprintf("grid call %d", n))
		}
		return smallGrid()
	}
}

// TestRunSetPreparesOncePerCombo pins the point driver's sharing: each
// combo point is prepared once (one Grid probe) and its replications
// reuse that setup (one Grid build each), so a sweep of C combos × R
// runs builds C×(1+R) grids, not a Prepare per replication.
func TestRunSetPreparesOncePerCombo(t *testing.T) {
	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 6, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wm", 6, 40, 1), Label: "EGS/Wm"},
		{Policy: "EQUI", Workload: smallWorkload("Wm", 6, 40, 1), Label: "EQUI/Wm"},
	}
	const runs = 3
	var calls atomic.Int64
	base := Config{Grid: countingGrid(&calls, 0), Runs: runs, Seed: 7, Parallelism: 2}
	if _, err := RunSet("PRA", combos, base); err != nil {
		t.Fatal(err)
	}
	if got, want := calls.Load(), int64(len(combos)*(1+runs)); got != want {
		t.Fatalf("Grid called %d times, want %d (one probe per combo + one per replication)", got, want)
	}
}

// TestReplicationPanicIsAnError pins the driver's recovery on the batch
// path: a replication that panics fails Run and RunSet with an error
// naming it, instead of unwinding a pool goroutine and killing the
// process. Every probe precedes its own point's replications, so the
// last Grid call of a sweep is always a replication's.
func TestReplicationPanicIsAnError(t *testing.T) {
	const runs = 3
	var calls atomic.Int64
	cfg := Config{
		Workload:    smallWorkload("small", 5, 60, 1)(1),
		Grid:        countingGrid(&calls, 1+runs),
		Runs:        runs,
		Seed:        3,
		Parallelism: 1,
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "replication 2 panicked: grid call 4") {
		t.Fatalf("Run err = %v, want replication 2's panic", err)
	}

	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 5, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wm", 5, 40, 1), Label: "EGS/Wm"},
	}
	last := int64(len(combos) * (1 + runs))
	calls.Store(0)
	base := Config{Grid: countingGrid(&calls, last), Runs: runs, Seed: 3, Parallelism: 2}
	_, err = RunSet("PRA", combos, base)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("panicked: grid call %d", last)) ||
		!strings.Contains(err.Error(), "replication") {
		t.Fatalf("RunSet err = %v, want a replication's panic", err)
	}
}
