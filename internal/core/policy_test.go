package core

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/runner"
)

// fixture builds a one-cluster system without a manager, submits n malleable
// GADGET jobs at staggered times, and runs until they all execute.
func fixture(t *testing.T, nodes, n int) (*System, []*koala.Job) {
	t.Helper()
	sys := NewSystem(SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", nodes)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:        koala.WorstFit{},
			PollInterval:  1e9, // effectively disable polling: tests drive manually
			MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}},
		},
		DisableManager: true,
	})
	var jobs []*koala.Job
	for i := 0; i < n; i++ {
		sys.Engine.RunUntil(float64(i * 10)) // staggered start times
		j, err := sys.Scheduler.Submit(malleableSpec(string(rune('a'+i)), app.GadgetProfile(), 2))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	sys.Engine.RunUntil(float64(n*10) + 5)
	for _, j := range jobs {
		if j.State() != koala.Running {
			t.Fatalf("fixture job %s not running: %v", j.Spec.ID, j.State())
		}
	}
	return sys, jobs
}

func planned(jobs []*koala.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.PlannedProcs()
	}
	return out
}

// plannedTotal sums the jobs' planned sizes: a policy round moves it by
// exactly what the jobs accepted or released.
func plannedTotal(jobs []*koala.Job) int {
	n := 0
	for _, j := range jobs {
		n += j.PlannedProcs()
	}
	return n
}

func TestFPSMAGrowFavoursEarliestStarted(t *testing.T) {
	_, jobs := fixture(t, 200, 3)
	before := plannedTotal(jobs)
	FPSMA{}.Grow(jobs, 50)
	if accepted := plannedTotal(jobs) - before; accepted != 50 {
		t.Fatalf("accepted = %d, want 50", accepted)
	}
	got := planned(jobs)
	// Earliest job grows to max (46, +44), second takes the rest (+6).
	want := []int{46, 8, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestFPSMAGrowStopsAtZero(t *testing.T) {
	_, jobs := fixture(t, 200, 3)
	before := plannedTotal(jobs)
	FPSMA{}.Grow(jobs, 10)
	if accepted := plannedTotal(jobs) - before; accepted != 10 {
		t.Fatalf("accepted = %d", accepted)
	}
	got := planned(jobs)
	want := []int{12, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestFPSMAShrinkFavoursLatestStarted(t *testing.T) {
	sys, jobs := fixture(t, 200, 3)
	FPSMA{}.Grow(jobs, 30) // jobs now 32, 2, 2... wait: 30 → first takes 30 (→32)
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	// planned: [32, 2, 2]; grow the others for shrink material.
	jobs[1].RequestGrow(10)
	jobs[2].RequestGrow(10)
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	// planned: [32, 12, 12]
	before := plannedTotal(jobs)
	FPSMA{}.Shrink(jobs, 15)
	if released := before - plannedTotal(jobs); released != 15 {
		t.Fatalf("released = %d, want 15", released)
	}
	got := planned(jobs)
	// Latest-started (index 2) gives up 10 (to min 2), then index 1 gives 5.
	want := []int{32, 7, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestEGSGrowDistributesEqually(t *testing.T) {
	_, jobs := fixture(t, 200, 3)
	before := plannedTotal(jobs)
	EGS{}.Grow(jobs, 30)
	if accepted := plannedTotal(jobs) - before; accepted != 30 {
		t.Fatalf("accepted = %d", accepted)
	}
	got := planned(jobs)
	want := []int{12, 12, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestEGSGrowBonusToLeastRecentlyStarted(t *testing.T) {
	_, jobs := fixture(t, 200, 3)
	EGS{}.Grow(jobs, 11) // share 3, remainder 2 → bonuses to jobs[0], jobs[1]
	got := planned(jobs)
	want := []int{6, 6, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestEGSShrinkMalusToMostRecentlyStarted(t *testing.T) {
	sys, jobs := fixture(t, 200, 3)
	EGS{}.Grow(jobs, 30) // all at 12
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	before := plannedTotal(jobs)
	EGS{}.Shrink(jobs, 11) // share 3, remainder 2 → malus on jobs[2], jobs[1]
	if released := before - plannedTotal(jobs); released != 11 {
		t.Fatalf("released = %d", released)
	}
	got := planned(jobs)
	want := []int{9, 8, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("planned = %v, want %v", got, want)
		}
	}
}

func TestEGSEmptyAndZero(t *testing.T) {
	EGS{}.Grow(nil, 10) // an empty job list must not panic
	EGS{}.Shrink(nil, 10)
	_, jobs := fixture(t, 200, 2)
	EGS{}.Grow(jobs, 0)
	EGS{}.Shrink(jobs, 0)
	if got := planned(jobs); got[0] != 2 || got[1] != 2 {
		t.Fatalf("zero amount should be a no-op: planned = %v", got)
	}
}

func TestEGSRespectsFTPowerOfTwo(t *testing.T) {
	sys := NewSystem(SystemConfig{
		Grid:           cluster.NewMulticluster(cluster.New("A", 100)),
		Gram:           gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler:      koala.Config{Policy: koala.WorstFit{}, PollInterval: 1e9, MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}}},
		DisableManager: true,
	})
	j1, _ := sys.Scheduler.Submit(malleableSpec("ft1", app.FTProfile(), 2))
	j2, _ := sys.Scheduler.Submit(malleableSpec("ft2", app.FTProfile(), 2))
	sys.Engine.RunUntil(5)
	jobs := []*koala.Job{j1, j2}
	before := plannedTotal(jobs)
	EGS{}.Grow(jobs, 11) // offers 6 and 5 → FT accepts 6 (→8) and 2 (→4)
	if accepted := plannedTotal(jobs) - before; accepted != 6+2 {
		t.Fatalf("accepted = %d, want 8", accepted)
	}
	got := planned(jobs)
	if got[0] != 8 || got[1] != 4 {
		t.Fatalf("planned = %v", got)
	}
}

func TestEquipartitionRebalances(t *testing.T) {
	sys, jobs := fixture(t, 200, 3)
	FPSMA{}.Grow(jobs, 28) // [30, 2, 2]
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	Equipartition{}.Grow(jobs, 2) // pool = 30+2+2+2 = 36 → target 12
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	got := planned(jobs)
	for i, p := range got {
		if p < 10 || p > 14 {
			t.Fatalf("equipartition planned[%d] = %d (want ≈12): %v", i, p, got)
		}
	}
}

func TestFoldingDoublesAndHalves(t *testing.T) {
	sys, jobs := fixture(t, 200, 2)
	before := plannedTotal(jobs)
	Folding{}.Grow(jobs, 6) // doubles job0 (2→4), then job1 (2→4)
	if accepted := plannedTotal(jobs) - before; accepted != 4 {
		t.Fatalf("accepted = %d, want 4", accepted)
	}
	got := planned(jobs)
	if got[0] != 4 || got[1] != 4 {
		t.Fatalf("planned = %v", got)
	}
	sys.Engine.RunUntil(sys.Engine.Now() + 20)
	before = plannedTotal(jobs)
	Folding{}.Shrink(jobs, 2)
	if released := before - plannedTotal(jobs); released != 2 {
		t.Fatalf("released = %d", released)
	}
	got = planned(jobs)
	if got[1] != 2 || got[0] != 4 {
		t.Fatalf("planned after shrink = %v (halve latest first)", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"FPSMA", "EGS", "EQUI", "FOLD", "fpsma", "egs", "equi", "fold"} {
		if p, ok := PolicyByName(name); !ok || p == nil {
			t.Errorf("PolicyByName(%q) failed", name)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("unknown policy should fail")
	}
	if (FPSMA{}).Name() != "FPSMA" || (EGS{}).Name() != "EGS" || (Equipartition{}).Name() != "EQUI" || (Folding{}).Name() != "FOLD" {
		t.Fatal("policy names")
	}
}
