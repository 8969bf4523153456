package experiment

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// smallGrid keeps integration tests fast: two clusters, 48+32 nodes.
func smallGrid() *cluster.Multicluster {
	return cluster.NewMulticluster(cluster.New("A", 48), cluster.New("B", 32))
}

// runSeed is one seeded replication of cfg: Prepare followed by a single
// Prepared.RunOnce.
func runSeed(cfg Config, seed uint64) (*RunResult, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunOnce(seed)
}

// smallWorkload is a scaled-down Wm.
func smallWorkload(name string, n int, inter float64, mall float64) func(uint64) workload.Spec {
	return func(seed uint64) workload.Spec {
		return workload.Spec{
			Name: name, Jobs: n, InterArrival: inter,
			MalleableFraction: mall, InitialSize: 2, RigidSize: 2, Seed: seed,
		}
	}
}

func TestRunOnceCompletesAllJobs(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 20, 60, 1)(1),
		Policy:   "FPSMA",
		Approach: "PRA",
		Grid:     smallGrid,
		Runs:     1,
	}
	res, err := runSeed(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Fatalf("records = %d, want 20", len(res.Records))
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected = %d", res.Rejected)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	if res.GrowOps.Len() == 0 {
		t.Fatal("no grow operations under PRA with idle capacity")
	}
}

func TestRunPoolsRuns(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 10, 60, 1)(1),
		Policy:   "EGS",
		Approach: "PRA",
		Grid:     smallGrid,
		Runs:     2,
		Seed:     5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if len(res.Pooled) != 20 {
		t.Fatalf("pooled = %d", len(res.Pooled))
	}
	if res.Runs[0].Seed == res.Runs[1].Seed {
		t.Fatal("runs share a seed")
	}
	if res.MeanExecution() <= 0 || res.MeanResponse() <= 0 {
		t.Fatal("aggregate stats empty")
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 10, 60, 0.5)(1),
		Policy:   "FPSMA",
		Approach: "PWA",
		Grid:     smallGrid,
	}
	a, err := runSeed(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSeed(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestUnknownNamesFail(t *testing.T) {
	base := Config{Workload: smallWorkload("w", 2, 10, 1)(1), Grid: smallGrid}
	bad := []Config{
		{Workload: base.Workload, Grid: smallGrid, Policy: "NOPE"},
		{Workload: base.Workload, Grid: smallGrid, Approach: "NOPE"},
		{Workload: base.Workload, Grid: smallGrid, Placement: "NOPE"},
	}
	for i, cfg := range bad {
		if _, err := runSeed(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	fig := Fig6()
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	ft, gadget := fig.Series[0], fig.Series[1]
	// Anchors from the paper: FT 120 s at 2 procs, GADGET 600 s at 2 procs.
	if ft.Points[1].Percent != 120 || gadget.Points[1].Percent != 600 {
		t.Fatalf("anchors: FT(2)=%g GADGET(2)=%g", ft.Points[1].Percent, gadget.Points[1].Percent)
	}
	if !strings.Contains(fig.Render(), "Gadget2") {
		t.Fatal("render missing series")
	}
	if !strings.Contains(fig.CSV(), "FT") {
		t.Fatal("csv missing header")
	}
}

func TestTable1(t *testing.T) {
	tbl := Table1()
	for _, want := range []string{"Delft", "68", "272", "Myri-10G"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table I missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunSetProducesAllFigures(t *testing.T) {
	combos := []Combo{
		{Policy: "FPSMA", Workload: smallWorkload("Wm", 12, 40, 1), Label: "FPSMA/Wm"},
		{Policy: "EGS", Workload: smallWorkload("Wm", 12, 40, 1), Label: "EGS/Wm"},
	}
	set, err := RunSet("PRA", combos, Config{Grid: smallGrid, Runs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Labels) != 2 {
		t.Fatalf("labels = %v", set.Labels)
	}
	figs := []Figure{
		set.FigSizesAvg("7a"),
		set.FigSizesMax("7b"),
		set.FigExecTimes("7c"),
		set.FigResponseTimes("7d"),
		set.FigUtilization("7e", 0, 1000, 100),
		set.FigOps("7f", 0, 1000, 100),
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Fatalf("figure %s has %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				t.Fatalf("figure %s series %s empty", f.ID, s.Label)
			}
		}
		if f.Render() == "" || f.CSV() == "" {
			t.Fatalf("figure %s does not render", f.ID)
		}
	}
	if !strings.Contains(set.SummaryTable(), "FPSMA/Wm") {
		t.Fatal("summary table missing combo")
	}
}

func TestCDFFiguresEndAtHundredPercent(t *testing.T) {
	combos := []Combo{{Policy: "FPSMA", Workload: smallWorkload("Wm", 8, 40, 1), Label: "FPSMA/Wm"}}
	set, err := RunSet("PRA", combos, Config{Grid: smallGrid, Runs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fig := set.FigExecTimes("7c")
	pts := fig.Series[0].Points
	if got := pts[len(pts)-1].Percent; got != 100 {
		t.Fatalf("CDF tail = %g, want 100", got)
	}
}

func TestDisableMalleabilityBaseline(t *testing.T) {
	cfg := Config{
		Workload:            smallWorkload("rigid-ish", 10, 60, 1)(1),
		Grid:                smallGrid,
		DisableMalleability: true,
	}
	res, err := runSeed(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != 0 {
		t.Fatalf("plain KOALA performed %g malleability ops", res.TotalOps)
	}
	// Jobs stay at their initial size.
	for _, r := range res.Records {
		if r.MaxProcs != 2 {
			t.Fatalf("job %s reached %d procs without a manager", r.ID, r.MaxProcs)
		}
	}
}

func TestBackgroundLoadIntegration(t *testing.T) {
	cfg := Config{
		Workload:   smallWorkload("bg", 10, 60, 1)(1),
		Grid:       smallGrid,
		Policy:     "EGS",
		Approach:   "PRA",
		Background: &workload.BackgroundSpec{MeanInterArrival: 100, MeanDuration: 200, MaxNodes: 10},
	}
	res, err := runSeed(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

// TestSparseArrivalsRunEveryJob pins that a replication ends only once no
// submission is left: arrivals sparse enough for the grid to drain
// between them must still run every job of the workload.
func TestSparseArrivalsRunEveryJob(t *testing.T) {
	sparse := workload.Wm(1)
	sparse.InterArrival = 600
	poisson := workload.Wmr(1)
	poisson.PoissonArrivals = true
	for _, spec := range []workload.Spec{sparse, poisson} {
		res, err := Run(Config{Workload: spec, Runs: 4, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i, run := range res.Runs {
			if len(run.Records) != 300 {
				t.Errorf("%s (inter-arrival %g, Poisson %v) replication %d: %d of 300 jobs",
					spec.Name, spec.InterArrival, spec.PoissonArrivals, i, len(run.Records))
			}
		}
	}
}

// TestLocalUsersArriveUntilTheLastSubmission pins that local users keep
// arriving until a little after the measured workload's last
// submission, which under Poisson arrivals may come after the nominal
// window of Jobs × InterArrival. On a two-node grid that local users
// keep full while they arrive, the last job must therefore wait for
// them; had they stopped 2000 s after the nominal window, it would wait
// only for GRAM's submit latency.
func TestLocalUsersArriveUntilTheLastSubmission(t *testing.T) {
	spec := workload.Spec{Name: "late", Jobs: 2, InterArrival: 3000, PoissonArrivals: true, InitialSize: 2, RigidSize: 2}
	cfg := Config{
		Workload:   spec,
		Grid:       func() *cluster.Multicluster { return cluster.NewMulticluster(cluster.New("A", 2)) },
		Background: &workload.BackgroundSpec{MeanInterArrival: 1, MeanDuration: 30, MaxNodes: 2},
	}
	nominalStop := float64(spec.Jobs)*spec.InterArrival + 2000
	// Seeds whose second submission comes over 600 s after the nominal
	// stop, when the local users of a stop there would be long gone.
	for _, seed := range []uint64{6, 14, 23, 24} {
		res, err := runSeed(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			if r.ID != "late-001" {
				continue
			}
			if r.SubmitTime < nominalStop+600 {
				t.Fatalf("seed %d: last submission at %.1f s, want after %.1f s", seed, r.SubmitTime, nominalStop+600)
			}
			if r.WaitTime < 100 {
				t.Errorf("seed %d: the job submitted at %.1f s waited %.1f s: local users had stopped arriving", seed, r.SubmitTime, r.WaitTime)
			}
		}
	}
}

// TestSubmissionErrorsEndTheRun pins that a workload whose every
// submission fails ends once its submissions are out, with the
// submission error.
func TestSubmissionErrorsEndTheRun(t *testing.T) {
	cfg := Config{
		Workload:     workload.Spec{Name: "toobig", Jobs: 2, InterArrival: 30, MalleableFraction: 1, InitialSize: 64, RigidSize: 2},
		Grid:         func() *cluster.Multicluster { return cluster.NewMulticluster(cluster.New("A", 4)) },
		NoBackground: true,
	}
	_, err := runSeed(cfg, 1)
	if err == nil || !strings.Contains(err.Error(), "2 submission errors") {
		t.Fatalf("RunOnce error %v, want the 2 submission errors", err)
	}
}
