package core

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/runner"
)

func managedSystem(nodes int, mgr ManagerConfig) *System {
	return NewSystem(SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", nodes)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:        koala.WorstFit{},
			PollInterval:  5,
			MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}, AcquireTimeout: 60},
		},
		Manager: mgr,
	})
}

func malleableSpec(id string, p *app.Profile, initial int) koala.JobSpec {
	return koala.JobSpec{ID: id, Profile: p, Size: initial}
}

func rigidSpec(id string, model app.RuntimeModel, size int) koala.JobSpec {
	return koala.JobSpec{ID: id, Profile: app.RigidProfile(id, model, size), Size: size}
}

// passive never grows or shrinks jobs on its own: it only serves the
// placement queue, so a test or benchmark drives every policy round.
type passive struct{}

func (passive) Name() string                                 { return "passive" }
func (passive) OnPoll(m *Manager, _ koala.Snapshot)          { m.sched.ScanQueue() }
func (passive) OnProcessorsAvailable(m *Manager)             { m.sched.ScanQueue() }
func (passive) OnPlacementBlocked(*Manager, *koala.Job) bool { return false }

func TestPRAGrowsRunningJobOnPoll(t *testing.T) {
	sys := managedSystem(64, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}})
	j, err := sys.Scheduler.Submit(malleableSpec("g", app.GadgetProfile(), 2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.RunUntil(30)
	if j.PlannedProcs() != 46 {
		t.Fatalf("planned = %d, want 46 (grown to max)", j.PlannedProcs())
	}
	if sys.Manager.GrowOps().Total() == 0 {
		t.Fatal("no grow operations recorded")
	}
	sys.Scheduler.Stop()
}

func TestPRANeverShrinks(t *testing.T) {
	sys := managedSystem(8, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}})
	long, _ := sys.Scheduler.Submit(malleableSpec("long", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(30) // long grows to 8 (cluster size)
	if long.PlannedProcs() != 8 {
		t.Fatalf("planned = %d, want 8", long.PlannedProcs())
	}
	// A waiting job cannot trigger shrinks under PRA.
	blocked, _ := sys.Scheduler.Submit(malleableSpec("blocked", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(120)
	if blocked.State() != koala.Waiting {
		t.Fatalf("blocked state = %v (PRA must not shrink for it)", blocked.State())
	}
	if sys.Manager.ShrinkOps().Total() != 0 {
		t.Fatal("PRA recorded shrink operations")
	}
	sys.Scheduler.Stop()
}

func TestPRAPlacesWaitingJobsWithLeftovers(t *testing.T) {
	// Jobs at their max leave room: waiting jobs then get placed.
	sys := managedSystem(64, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}})
	a, _ := sys.Scheduler.Submit(malleableSpec("a", app.GadgetProfile(), 2)) // max 46
	sys.Engine.RunUntil(30)
	b, _ := sys.Scheduler.Submit(malleableSpec("b", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(60)
	if a.PlannedProcs() != 46 {
		t.Fatalf("a planned = %d", a.PlannedProcs())
	}
	if b.State() != koala.Running {
		t.Fatalf("b state = %v (leftover processors should place it)", b.State())
	}
	sys.Scheduler.Stop()
}

func TestPWAShrinksForWaitingJob(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PWA{}})
	long, _ := sys.Scheduler.Submit(malleableSpec("long", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(30) // long grows to 46 under PWA (queue empty)
	if long.PlannedProcs() != 46 {
		t.Fatalf("long planned = %d, want 46", long.PlannedProcs())
	}
	// New job arrives; cluster has 2 idle; needs 2 → fits. Fill the idle
	// first with a rigid job so the queue actually blocks.
	sys.Scheduler.Submit(rigidSpec("filler", app.GadgetModel(), 2))
	sys.Engine.RunUntil(40)
	waiting, _ := sys.Scheduler.Submit(malleableSpec("waiting", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(120)
	if waiting.State() != koala.Running {
		t.Fatalf("waiting state = %v (PWA should shrink to place it)", waiting.State())
	}
	if sys.Manager.ShrinkOps().Total() == 0 {
		t.Fatal("no shrink operations recorded")
	}
	if long.PlannedProcs() >= 46 {
		t.Fatalf("long planned = %d, should have shrunk", long.PlannedProcs())
	}
	sys.Scheduler.Stop()
}

func TestPWAGrowsWhenShrinkImpossible(t *testing.T) {
	// Big rigid job that cannot fit even with all malleables at minimum:
	// PWA must grow the running jobs instead.
	sys := managedSystem(16, ManagerConfig{Policy: FPSMA{}, Approach: PWA{}})
	m, _ := sys.Scheduler.Submit(malleableSpec("m", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(10)
	big, _ := sys.Scheduler.Submit(rigidSpec("big", app.GadgetModel(), 16)) // needs whole cluster
	sys.Engine.RunUntil(60)
	if big.State() != koala.Waiting {
		t.Fatalf("big state = %v", big.State())
	}
	if m.PlannedProcs() <= 2 {
		t.Fatalf("m planned = %d; PWA should grow it when shrinking cannot help", m.PlannedProcs())
	}
	sys.Scheduler.Stop()
}

func TestGrowthReserveKeepsNodesForLocalUsers(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}, GrowthReserve: 10})
	j, _ := sys.Scheduler.Submit(malleableSpec("g", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(60)
	// 48 nodes, reserve 10 → at most 38 for the job.
	if j.PlannedProcs() > 38 {
		t.Fatalf("planned = %d exceeds reserve-constrained 38", j.PlannedProcs())
	}
	if j.PlannedProcs() != 38 {
		t.Fatalf("planned = %d, want exactly 38", j.PlannedProcs())
	}
	sys.Scheduler.Stop()
}

func TestManagerSeesBackgroundLoadViaPolling(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}})
	clus := sys.Grid.Clusters()[0]
	// Local users grab 30 nodes before the job arrives.
	clus.SeizeBackground(30)
	j, _ := sys.Scheduler.Submit(malleableSpec("g", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(30)
	if j.PlannedProcs() != 18 {
		t.Fatalf("planned = %d, want 18 (48-30)", j.PlannedProcs())
	}
	// Local users leave; the next polls hand the nodes to the job.
	clus.ReleaseBackground(30)
	sys.Engine.RunUntil(60)
	if j.PlannedProcs() != 46 {
		t.Fatalf("planned = %d, want 46 after background release", j.PlannedProcs())
	}
	sys.Scheduler.Stop()
}

func TestManagerDoesNotOvercommitDuringAcquisition(t *testing.T) {
	// Two polls in quick succession must not hand out the same idle
	// processors twice while the first grant's stubs are still in flight.
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}})
	j, _ := sys.Scheduler.Submit(malleableSpec("g", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(300)
	if j.PlannedProcs() != 46 {
		t.Fatalf("planned = %d", j.PlannedProcs())
	}
	// Planned never exceeded max and cluster never over-allocated:
	if used := sys.Grid.Clusters()[0].Used(); used > 48 || used < 0 {
		t.Fatalf("used = %d", used)
	}
	sys.Scheduler.Stop()
}

func TestApproachByNameAndDefaults(t *testing.T) {
	for _, name := range []string{"PRA", "PWA", "PWAV", "pra", "pwa", "pwav"} {
		if a, ok := ApproachByName(name); !ok || a == nil {
			t.Errorf("ApproachByName(%q) failed", name)
		}
	}
	// No input selects a manager that leaves malleability to the
	// applications: MANUAL is not an approach.
	for _, name := range []string{"x", "MANUAL", "manual"} {
		if _, ok := ApproachByName(name); ok {
			t.Errorf("ApproachByName(%q) succeeded, want unknown", name)
		}
	}
	if (PRA{}).Name() != "PRA" || (PWA{}).Name() != "PWA" {
		t.Fatal("approach names")
	}
	// A zero ManagerConfig is FPSMA under PRA.
	sys := managedSystem(8, ManagerConfig{})
	if p, a := sys.Manager.cfg.Policy.Name(), sys.Manager.cfg.Approach.Name(); p != "FPSMA" || a != "PRA" {
		t.Fatalf("zero ManagerConfig runs %s under %s, want FPSMA under PRA", p, a)
	}
	sys.Scheduler.Stop()
}

func TestNegativeReservePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative reserve did not panic")
		}
	}()
	managedSystem(8, ManagerConfig{Policy: FPSMA{}, Approach: PRA{}, GrowthReserve: -1})
}

func TestSystemRunUntilDone(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: EGS{}, Approach: PRA{}})
	sys.Scheduler.Submit(malleableSpec("a", app.FTProfile(), 2))
	sys.Scheduler.Submit(malleableSpec("b", app.FTProfile(), 2))
	if err := sys.RunUntilDone(10000, nil); err != nil {
		t.Fatal(err)
	}
	for _, j := range sys.Scheduler.Jobs() {
		if j.State() != koala.Finished {
			t.Fatalf("job %s state %v", j.Spec.ID, j.State())
		}
	}
}

// TestRunUntilDoneStopsAtHorizon pins that RunUntilDone never advances
// the clock past its horizon: a job still running there is reported, not
// finished by a check window that overshoots.
func TestRunUntilDoneStopsAtHorizon(t *testing.T) {
	sys := NewSystem(SystemConfig{
		Grid:      cluster.NewMulticluster(cluster.New("A", 8)),
		Gram:      gram.DefaultConfig(),
		Scheduler: koala.Config{Policy: koala.WorstFit{}, PollInterval: 15},
	})
	flat := app.NewTableModel("flat", []app.TablePoint{{Procs: 1, Time: 100}})
	j, err := sys.Scheduler.Submit(rigidSpec("r", flat, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Submitted at 0, it starts after the 5 s GRAM latency and ends at 105.
	if err := sys.RunUntilDone(90, nil); err == nil {
		t.Fatalf("RunUntilDone(90) returned nil; job %s is %v, ended at %g", j.Spec.ID, j.State(), j.EndTime())
	}
	if now := sys.Engine.Now(); now != 90 {
		t.Fatalf("clock at %g after RunUntilDone(90), want 90", now)
	}
	if j.State() != koala.Running {
		t.Fatalf("job state %v at the horizon, want running", j.State())
	}
	if err := sys.RunUntilDone(200, nil); err != nil {
		t.Fatal(err)
	}
	if j.EndTime() != 105 {
		t.Fatalf("job ended at %g, want 105", j.EndTime())
	}
}

// TestEquipartitionGrowRoundCountsItsShrinks pins that a grow round
// records every message its policy sends: Equipartition shrinks the jobs
// above the fair share before it grows the rest, and those shrinks count
// in ShrinkOps like a shrink round's.
func TestEquipartitionGrowRoundCountsItsShrinks(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: Equipartition{}, Approach: passive{}})
	a, _ := sys.Scheduler.Submit(malleableSpec("a", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(3)
	if got := a.RequestGrow(20); got != 20 {
		t.Fatalf("a accepted %d, want 20", got)
	}
	b, _ := sys.Scheduler.Submit(malleableSpec("b", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(10)
	if b.State() != koala.Running {
		t.Fatalf("b = %v, want running", b.State())
	}
	// Pool 22+2+2 = 26, fair share 13: a gives back 9, b is offered 11.
	sys.Manager.growSiteAt(0, 2)
	if a.PlannedProcs() != 13 || b.PlannedProcs() != 13 {
		t.Fatalf("planned a=%d b=%d, want 13 and 13", a.PlannedProcs(), b.PlannedProcs())
	}
	if g, s := sys.Manager.GrowOps().Total(), sys.Manager.ShrinkOps().Total(); g != 1 || s != 1 {
		t.Errorf("recorded %g grow and %g shrink messages, want 1 and 1", g, s)
	}
	sys.Scheduler.Stop()
}
