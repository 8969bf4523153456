package core

import (
	"testing"

	"repro/internal/app"
	"repro/internal/koala"
)

func TestPWAVoluntaryPrefersPoliteShrinks(t *testing.T) {
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PWAVoluntary{}})
	long, _ := sys.Scheduler.Submit(malleableSpec("long", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(30) // grows to 46; progress still < 50%
	if long.PlannedProcs() != 46 {
		t.Fatalf("long planned = %d", long.PlannedProcs())
	}
	sys.Scheduler.Submit(rigidSpec("filler", app.GadgetModel(), 2))
	sys.Engine.RunUntil(40)
	waiting, _ := sys.Scheduler.Submit(malleableSpec("waiting", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(160)
	if waiting.State() != koala.Running {
		t.Fatalf("waiting state = %v", waiting.State())
	}
	// The long job agreed voluntarily (early in its run): shrink messages
	// were recorded and the long job shrank.
	if sys.Manager.ShrinkOps().Total() == 0 {
		t.Fatal("no shrink messages recorded")
	}
	if long.PlannedProcs() >= 46 {
		t.Fatalf("long planned = %d, should have shrunk", long.PlannedProcs())
	}
	sys.Scheduler.Stop()
}

func TestPWAVoluntaryFallsBackToMandatory(t *testing.T) {
	// The running job is past 50% progress, so it declines the polite
	// request; the manager must reclaim mandatorily.
	sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: PWAVoluntary{}})
	long, _ := sys.Scheduler.Submit(malleableSpec("long", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(30)
	sys.Scheduler.Submit(rigidSpec("filler", app.GadgetModel(), 2))
	// Wait until the long job is past half of T(46)=240 s.
	sys.Engine.RunUntil(200)
	waiting, _ := sys.Scheduler.Submit(malleableSpec("waiting", app.GadgetProfile(), 2))
	sys.Engine.RunUntil(400)
	if waiting.State() != koala.Running && waiting.State() != koala.Finished {
		t.Fatalf("waiting state = %v (mandatory fallback should place it)", waiting.State())
	}
	_ = long
	sys.Scheduler.Stop()
}

func TestPWAVoluntaryRegistered(t *testing.T) {
	a, ok := ApproachByName("PWAV")
	if !ok || a.Name() != "PWAV" {
		t.Fatalf("PWAV not registered: %v %v", a, ok)
	}
}

// TestPWAVCountsOneShrinkMessagePerJobAsked pins Fig. 8f's operation
// series under PWAV: the voluntary round stops asking once the need is
// met and records one shrink message per job it asked, as PWA's
// mandatory round does. An FT job at 32 and a GADGET2 job at 16 fill a
// 48-node cluster; a 2-node rigid job then blocks, and both approaches
// shrink only the later-started GADGET2 job, with one message.
func TestPWAVCountsOneShrinkMessagePerJobAsked(t *testing.T) {
	for _, apr := range []Approach{PWA{}, PWAVoluntary{}} {
		t.Run(apr.Name(), func(t *testing.T) {
			sys := managedSystem(48, ManagerConfig{Policy: FPSMA{}, Approach: apr})
			ft, _ := sys.Scheduler.Submit(malleableSpec("ft", app.FTProfile(), 2))
			g, _ := sys.Scheduler.Submit(malleableSpec("g", app.GadgetProfile(), 2))
			sys.Engine.RunUntil(12) // the t=5 poll grows FT to 32, GADGET2 to 16
			if ft.PlannedProcs() != 32 || g.PlannedProcs() != 16 {
				t.Fatalf("before the rigid job: FT %d, GADGET2 %d; want 32 and 16", ft.PlannedProcs(), g.PlannedProcs())
			}
			sys.Scheduler.Submit(rigidSpec("r", app.GadgetModel(), 2))
			sys.Engine.RunUntil(20) // the t=15 poll shrinks for the blocked job
			if ft.PlannedProcs() != 32 || g.PlannedProcs() != 14 {
				t.Fatalf("after the shrink: FT %d, GADGET2 %d; want 32 and 14", ft.PlannedProcs(), g.PlannedProcs())
			}
			if got := sys.Manager.ShrinkOps().Total(); got != 1 {
				t.Errorf("shrink messages = %g, want 1", got)
			}
			sys.Scheduler.Stop()
		})
	}
}
