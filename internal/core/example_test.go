package core_test

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
)

// ExampleManual shows the §II-C / §VIII extension: grow operations
// initiated by the application rather than the scheduler, for irregular
// parallelism patterns. The application asks KOALA's malleability manager
// for more processors when its computation calls for it; the manager
// grants at most the current headroom (such requests are voluntary for
// the scheduler and never preempt other jobs).
func ExampleManual() {
	grid := cluster.NewMulticluster(cluster.New("site", 32))
	sys := core.NewSystem(core.SystemConfig{
		Grid: grid,
		Manager: core.ManagerConfig{
			Policy: core.FPSMA{},
			// The Manual approach never grows jobs on its own: every size
			// change below is application-initiated.
			Approach: core.Manual{},
		},
	})

	job, err := sys.SubmitMalleable("irregular", app.GadgetProfile(), 2)
	if err != nil {
		panic(err)
	}

	// The application hits a computation phase needing more parallelism at
	// t=60 and an even wider phase at t=120.
	for _, req := range []struct {
		at     float64
		amount int
	}{{60, 8}, {120, 16}} {
		sys.Engine.At(req.at, func() {
			got := job.AppRequestGrow(req.amount)
			fmt.Printf("t=%3.0fs  application asked for +%d processors, obtained %d (now %d planned)\n",
				sys.Engine.Now(), req.amount, got, job.PlannedProcs())
		})
	}

	// A competing rigid job eats headroom at t=90, so the second request
	// can only be granted partially.
	sys.Engine.At(90, func() {
		if _, err := sys.SubmitRigid("competitor", app.FTModel(), 12); err != nil {
			panic(err)
		}
		fmt.Println("t= 90s  a rigid 12-processor job arrives and is placed")
	})

	maxSeen := 0
	for t := 30.0; t <= 300; t += 30 {
		sys.Run(t)
		if p := job.CurrentProcs(); p > maxSeen {
			maxSeen = p
		}
	}
	if err := sys.RunUntilDone(10000, nil); err != nil {
		panic(err)
	}
	fmt.Printf("application-initiated grow requests granted by the manager: %d\n",
		sys.Manager.AppGrowRequests())
	fmt.Printf("job finished at t=%.0fs having reached %d processors\n",
		job.EndTime(), maxSeen)
	// Output:
	// t= 60s  application asked for +8 processors, obtained 8 (now 10 planned)
	// t= 90s  a rigid 12-processor job arrives and is placed
	// t=120s  application asked for +16 processors, obtained 10 (now 20 planned)
	// application-initiated grow requests granted by the manager: 2
	// job finished at t=321s having reached 20 processors
}
