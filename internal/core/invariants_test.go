package core

import (
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestPropertySystemInvariants drives the full stack with random workloads,
// random policies/approaches and random background churn, and checks global
// invariants at every sampled instant:
//
//  1. cluster accounting never goes negative or over capacity;
//  2. a running malleable job's planned size stays within [Min, Max];
//  3. held processors never exceed cluster capacity;
//  4. every job reaches a terminal state by the horizon;
//  5. each site's in-flight growth count equals the walk it replaces:
//     planned minus held processors, at least 0, summed over the site's
//     running malleable jobs.
func TestPropertySystemInvariants(t *testing.T) {
	policies := []Policy{FPSMA{}, EGS{}, Equipartition{}, Folding{}}
	approaches := []Approach{PRA{}, PWA{}, PWAVoluntary{}}

	run := func(seed uint64, polIdx, aprIdx, jobsRaw, interRaw, bgRaw uint8) bool {
		pol := policies[int(polIdx)%len(policies)]
		apr := approaches[int(aprIdx)%len(approaches)]
		nJobs := int(jobsRaw%30) + 5
		inter := float64(interRaw%60) + 10

		grid := cluster.NewMulticluster(
			cluster.New("A", 48), cluster.New("B", 24), cluster.New("C", 16),
		)
		sys := NewSystem(SystemConfig{
			Grid: grid,
			Gram: gram.Config{SubmitLatency: 3, ReleaseLatency: 0.5, SubmitConcurrency: 2},
			Scheduler: koala.Config{
				Policy:        koala.WorstFit{},
				PollInterval:  7,
				MRunnerConfig: runner.MRunnerConfig{Costs: app.DefaultReconfigCosts(), AcquireTimeout: 120},
			},
			Manager: ManagerConfig{Policy: pol, Approach: apr, GrowthReserve: int(bgRaw % 4)},
		})

		wl, err := workload.Generate(workload.Spec{
			Name: "fuzz", Jobs: nJobs, InterArrival: inter,
			MalleableFraction: 0.7, InitialSize: 2, RigidSize: 2, Seed: seed,
		})
		if err != nil {
			return false
		}
		sub := workload.Submit(sys.Engine, wl, func(js koala.JobSpec) error {
			_, err := sys.Scheduler.Submit(js)
			return err
		})
		if bgRaw%2 == 0 {
			bg, err := workload.StartBackground(sys.Engine, grid, workload.BackgroundSpec{
				MeanInterArrival: 120, MeanDuration: 240, MaxNodes: 12, Seed: seed + 7,
			})
			if err != nil {
				return false
			}
			sys.Engine.AtOp(wl.Duration()+1000, bg, 0)
		}

		horizon := wl.Duration() + 30000
		ok := true
		check := func() {
			for _, c := range grid.Clusters() {
				if c.Used() < 0 || c.Background() < 0 || c.Idle() < 0 ||
					c.Used()+c.Background() > c.Nodes() {
					ok = false
				}
			}
			for _, site := range sys.Sites {
				i, inflight := site.Index(), 0
				for _, j := range sys.Scheduler.RunningMalleableJobsAt(i) {
					if j.PlannedProcs() < j.MinProcs() || j.PlannedProcs() > j.Spec.Profile.Max {
						ok = false
					}
					inflight += max(j.PlannedProcs()-j.HeldProcs(), 0)
				}
				if got := sys.Scheduler.ReservedAt(i); got != inflight {
					t.Logf("seed=%d pol=%s apr=%s t=%g: site %d reserves %d, its jobs have %d in flight",
						seed, pol.Name(), apr.Name(), sys.Engine.Now(), i, got, inflight)
					ok = false
				}
			}
		}
		for sys.Engine.Now() < horizon && ok {
			sys.Engine.RunUntil(sys.Engine.Now() + 50)
			check()
			if sub.Submitted()+len(sub.Errs()) == nJobs && sys.Scheduler.Terminal() == len(sys.Scheduler.Jobs()) {
				break
			}
		}
		if !ok {
			return false
		}
		if sub.Submitted() != nJobs {
			t.Logf("seed=%d pol=%s apr=%s: %d of %d jobs submitted, errors %v", seed, pol.Name(), apr.Name(), sub.Submitted(), nJobs, sub.Errs())
			return false
		}
		for _, j := range sys.Scheduler.Jobs() {
			if st := j.State(); st != koala.Finished && st != koala.Rejected {
				t.Logf("seed=%d pol=%s apr=%s: job %s stuck in %v", seed, pol.Name(), apr.Name(), j.Spec.ID, st)
				return false
			}
		}
		sys.Scheduler.Stop()
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
