package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metrics"
)

// checkOneCopy requires res to hold its records once: every run's
// Records is its window of Pooled, at the offset of the records of the
// runs before it and capped at its length, and Pooled is their in-order
// concatenation.
func checkOneCopy(t *testing.T, name string, res *Result) {
	t.Helper()
	var concat []metrics.JobRecord
	off := 0
	for i, run := range res.Runs {
		recs := run.Records
		if cap(recs) != len(recs) {
			t.Errorf("%s: run %d's records have cap %d, len %d", name, i, cap(recs), len(recs))
		}
		if off+len(recs) > len(res.Pooled) {
			t.Fatalf("%s: run %d's records end at %d, past Pooled's %d", name, i, off+len(recs), len(res.Pooled))
		}
		if len(recs) > 0 && &recs[0] != &res.Pooled[off] {
			t.Errorf("%s: run %d's records are not Pooled's backing at offset %d", name, i, off)
		}
		concat = append(concat, recs...)
		off += len(recs)
	}
	if !reflect.DeepEqual(res.Pooled, concat) {
		t.Errorf("%s: Pooled is not the in-order concatenation of the runs' records", name)
	}
}

// TestBatchResultHoldsOneCopyOfRecords pins that the batch drivers write
// each job record once: a replication's collector appends into its
// window of the point's pooled backing, so Run and RunSet return the
// runs' records and Pooled as views of one array, and the records are
// still exactly what a single-shot replication of the same seed reports.
func TestBatchResultHoldsOneCopyOfRecords(t *testing.T) {
	cfg := Config{
		Workload:    smallWorkload("small", 12, 40, 0.5)(1),
		Policy:      "EGS",
		Approach:    "PRA",
		Grid:        smallGrid,
		Runs:        4,
		Seed:        5,
		Parallelism: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOneCopy(t, "Run", res)
	for i, run := range res.Runs {
		single, err := runSeed(cfg, cfg.Seed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run.Records, single.Records) {
			t.Errorf("run %d's pooled records differ from a single-shot run's", i)
		}
	}

	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 8, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wmr", 8, 40, 0.5), Label: "EGS/Wmr"},
	}
	set, err := RunSet("PRA", combos, Config{Grid: smallGrid, Runs: 3, Seed: 9, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range set.Labels {
		checkOneCopy(t, "RunSet "+label, set.Results[label])
	}
}

// TestPackRecordsClosesGaps drives the gap-closing step, which no
// experiment config reaches (their jobs are never rejected): runs that
// finished fewer jobs than their window holds leave gaps, which
// packRecords closes front to back.
func TestPackRecordsClosesGaps(t *testing.T) {
	const jobs = 4
	finished := []int{4, 2, 0, 3, 1}
	pooled := make([]metrics.JobRecord, len(finished)*jobs)
	runs := make([]*RunResult, len(finished))
	var want []string
	for i, k := range finished {
		// As a collector leaves its window: a prefix of it, with the
		// window's capacity.
		recs := pooled[i*jobs : i*jobs : (i+1)*jobs]
		for j := 0; j < k; j++ {
			id := fmt.Sprintf("r%d-%d", i, j)
			recs = append(recs, metrics.JobRecord{ID: id, EndTime: float64(i*jobs + j)})
			want = append(want, id)
		}
		runs[i] = &RunResult{Records: recs}
	}
	res := &Result{Runs: runs, Pooled: packRecords(pooled, runs)}
	checkOneCopy(t, "packed", res)
	var got []string
	for _, r := range res.Pooled {
		got = append(got, r.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("packed IDs = %v, want %v", got, want)
	}
	runs[1].Records = append(runs[1].Records, metrics.JobRecord{ID: "extra"})
	if runs[3].Records[0].ID != "r3-0" {
		t.Fatalf("appending to run 1's records overwrote run 3's: %q", runs[3].Records[0].ID)
	}
}

// TestFiguresCopyNoRecords pins that the CDF figures read the pooled
// records in place: each builds one float64 per selected record plus its
// grid, so a call allocates well under 24 bytes per pooled record. A
// figure that copied the malleable records first (128 bytes each) or
// its sample again would exceed it.
func TestFiguresCopyNoRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const perCombo = 1200
	set := &Set{Approach: "PRA", Results: map[string]*Result{}}
	for c := 0; c < 4; c++ {
		label := fmt.Sprintf("combo-%d", c)
		recs := make([]metrics.JobRecord, perCombo)
		for i := range recs {
			x := float64((i*37 + c) % 600)
			recs[i] = metrics.JobRecord{
				ID:            fmt.Sprintf("%s-%d", label, i),
				Malleable:     i%4 != 0,
				ExecutionTime: x,
				ResponseTime:  x + 5,
				AvgProcs:      x / 20,
				MaxProcs:      i % 46,
			}
		}
		set.Results[label] = &Result{Pooled: recs}
		set.Labels = append(set.Labels, label)
	}
	pooled := 4 * perCombo
	for _, f := range []struct {
		name string
		fig  func() Figure
	}{
		{"FigSizesAvg", func() Figure { return set.FigSizesAvg("7a") }},
		{"FigSizesMax", func() Figure { return set.FigSizesMax("7b") }},
		{"FigExecTimes", func() Figure { return set.FigExecTimes("7c") }},
		{"FigResponseTimes", func() Figure { return set.FigResponseTimes("7d") }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fig := f.fig()
		runtime.ReadMemStats(&after)
		if len(fig.Series) != len(set.Labels) {
			t.Fatalf("%s: %d series, want %d", f.name, len(fig.Series), len(set.Labels))
		}
		perRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(pooled)
		if perRec >= 24 {
			t.Errorf("%s allocates %.1f bytes per pooled record, want < 24", f.name, perRec)
		}
		t.Logf("%s: %.1f bytes per pooled record", f.name, perRec)
	}
}
