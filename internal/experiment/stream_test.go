package experiment

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / math.Max(scale, 1)
}

// TestRunStreamMatchesBatch is the determinism regression pinning the
// streaming aggregation path to the batch engine: same config and seed
// must yield the same metrics whether records are pooled or streamed.
func TestRunStreamMatchesBatch(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 15, 60, 1)(1),
		Policy:   "FPSMA",
		Approach: "PRA",
		Grid:     smallGrid,
		Runs:     3,
		Seed:     5,
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if stream.Jobs() != len(batch.Pooled) {
		t.Fatalf("stream jobs = %d, batch %d", stream.Jobs(), len(batch.Pooled))
	}
	if stream.Summary().Malleable != len(batch.MalleableRecords()) {
		t.Fatalf("stream malleable = %d, batch %d", stream.Summary().Malleable, len(batch.MalleableRecords()))
	}
	// Per-replication scalars follow the exact same float operations in
	// the same order, so they are bit-identical.
	if got, want := stream.MeanUtilization(), batch.MeanUtilization(); got != want {
		t.Errorf("MeanUtilization: stream %v, batch %v", got, want)
	}
	if got, want := stream.TotalOps(), batch.TotalOps(); got != want {
		t.Errorf("TotalOps: stream %v, batch %v", got, want)
	}
	// Pooled means differ only by summation associativity (per-rep
	// partial sums), i.e. a few ulps.
	if d := relDiff(stream.MeanExecution(), batch.MeanExecution()); d > 1e-12 {
		t.Errorf("MeanExecution: stream %v, batch %v (rel %g)", stream.MeanExecution(), batch.MeanExecution(), d)
	}
	if d := relDiff(stream.MeanResponse(), batch.MeanResponse()); d > 1e-12 {
		t.Errorf("MeanResponse: stream %v, batch %v (rel %g)", stream.MeanResponse(), batch.MeanResponse(), d)
	}
	// Sketch quantiles stay within the sketch's relative error of the
	// batch nearest-rank values.
	execs := metrics.ExecTimesOf(batch.Pooled)
	med := stream.Summary().Exec.Median
	if d := relDiff(med, stats.Percentile(execs, 50)); d > 3*stats.DefaultSketchAccuracy {
		t.Errorf("exec median: stream %v, batch %v (rel %g)", med, stats.Percentile(execs, 50), d)
	}

	// Per-replication summaries line up with the batch runs.
	if len(stream.Replications) != len(batch.Runs) {
		t.Fatalf("replications = %d, want %d", len(stream.Replications), len(batch.Runs))
	}
	for i, rep := range stream.Replications {
		run := batch.Runs[i]
		if rep.Seed != run.Seed || rep.Jobs != len(run.Records) || rep.Makespan != run.Makespan {
			t.Errorf("replication %d diverges: %+v vs seed=%d jobs=%d makespan=%v",
				i, rep, run.Seed, len(run.Records), run.Makespan)
		}
	}
}

// TestRunStreamDeterministicAcrossParallelism pins that the merged
// aggregate does not depend on completion order.
func TestRunStreamDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 10, 60, 1)(1),
		Grid:     smallGrid,
		Runs:     4,
		Seed:     2,
	}
	serial := cfg
	serial.Parallelism = 1
	wide := cfg
	wide.Parallelism = 4

	a, err := RunStream(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(wide)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanExecution() != b.MeanExecution() || a.MeanResponse() != b.MeanResponse() {
		t.Errorf("means differ across parallelism: %v/%v vs %v/%v",
			a.MeanExecution(), a.MeanResponse(), b.MeanExecution(), b.MeanResponse())
	}
	if a.Summary().Exec.P90 != b.Summary().Exec.P90 {
		t.Error("sketch quantiles differ across parallelism")
	}
	if a.MeanUtilization() != b.MeanUtilization() {
		t.Error("utilisation differs across parallelism")
	}
}

// TestRunStreamCallback checks every replication is reported exactly
// once, and that concurrent invocation is the caller's to synchronize.
func TestRunStreamCallback(t *testing.T) {
	cfg := Config{
		Workload:    smallWorkload("small", 5, 60, 1)(1),
		Grid:        smallGrid,
		Runs:        3,
		Seed:        1,
		Parallelism: 3,
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	res, err := RunStreamContext(context.Background(), cfg, StreamHooks{OnDone: func(rep Replication) {
		mu.Lock()
		defer mu.Unlock()
		seen[rep.Rep]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("callback saw %d replications, want 3", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("replication %d reported %d times", i, n)
		}
	}
	if res.Jobs() != 15 {
		t.Errorf("jobs = %d, want 15", res.Jobs())
	}
}

// TestRunStreamRetainsNoRecords pins the memory contract: the result
// holds aggregates and per-replication scalars only.
func TestRunStreamRetainsNoRecords(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 8, 60, 1)(1),
		Grid:     smallGrid,
		Runs:     2,
		Seed:     1,
	}
	res, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The compile-time shape already guarantees it (StreamResult has no
	// record field); assert the aggregate counted without storing.
	if res.Summary().Jobs != 16 || res.Summary().Exec.N != 16 {
		t.Fatalf("aggregate miscounted: %d/%d", res.Summary().Jobs, res.Summary().Exec.N)
	}
	sum := res.Summary()
	if sum.Jobs != 16 || sum.Runs != 2 || len(sum.Replications) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Exec.N != 16 || sum.Exec.Mean <= 0 || sum.Exec.Median <= 0 {
		t.Fatalf("exec summary = %+v", sum.Exec)
	}
}

func TestRunStreamPropagatesErrors(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 2, 60, 1)(1),
		Grid:     smallGrid,
		Policy:   "NOPE",
		Runs:     2,
	}
	if _, err := RunStream(cfg); err == nil {
		t.Fatal("bad policy did not error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	good := Config{Workload: smallWorkload("small", 2, 60, 1)(1), Grid: smallGrid, Runs: 2}
	if _, err := RunStreamContext(ctx, good, StreamHooks{}); err == nil {
		t.Fatal("canceled context did not error")
	}
}
