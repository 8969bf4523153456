package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/sim"
)

// SystemConfig assembles a complete simulated multicluster with KOALA and
// the malleability manager. Grid and the scheduler's placement Policy are
// required; every other field is used as given, so a zero Gram config
// means zero GRAM latencies (experiment.Prepare resolves the paper's
// defaults). A zero Manager config is FPSMA under PRA.
type SystemConfig struct {
	Grid      *cluster.Multicluster
	Gram      gram.Config
	Scheduler koala.Config
	Manager   ManagerConfig
	// DisableManager runs plain KOALA without malleability support.
	DisableManager bool
}

// System is the facade tying the whole reproduction together; the
// experiment harness and the package example build everything through it.
type System struct {
	Engine    *sim.Engine
	Grid      *cluster.Multicluster
	Sites     []*koala.Site
	Scheduler *koala.Scheduler
	Manager   *Manager // nil when DisableManager
}

// NewSystem builds a system from the config.
func NewSystem(cfg SystemConfig) *System {
	engine := sim.New()
	sites := koala.BuildSites(engine, cfg.Grid, cfg.Gram)
	sched := koala.NewScheduler(engine, sites, cfg.Scheduler)
	sys := &System{Engine: engine, Grid: cfg.Grid, Sites: sites, Scheduler: sched}
	if !cfg.DisableManager {
		sys.Manager = NewManager(engine, sched, cfg.Manager)
	}
	return sys
}

// Teardown hands the memory of the system's replication-scoped objects
// — events, GRAM and LRM jobs, KOALA jobs and malleable runners — to
// shared pools, so the next system reuses it.
// Results must be copied out first: neither the system nor any handle
// it gave out may be used afterwards. A system that is never torn down
// leaves that memory to the garbage collector instead.
func (s *System) Teardown() {
	s.Scheduler.Teardown()
	for _, site := range s.Sites {
		site.Gram().Teardown()
		site.LRM().Teardown()
	}
	s.Engine.Teardown()
}

// RunUntilDone drives the simulation until no submission is left to come
// and every submitted job reached a terminal state, checking every 60
// simulated seconds. arriving reports whether submissions are still to
// come; nil means every job was submitted before the call. It never runs
// past horizon: if jobs are still live there, or submissions still to
// come, it returns an error saying so.
func (s *System) RunUntilDone(horizon float64, arriving func() bool) error {
	for s.Engine.Now() < horizon {
		s.Engine.RunUntil(min(s.Engine.Now()+60, horizon))
		if (arriving == nil || !arriving()) && s.Scheduler.Terminal() == len(s.Scheduler.Jobs()) {
			s.Scheduler.Stop()
			return nil
		}
	}
	stuck := len(s.Scheduler.Jobs()) - s.Scheduler.Terminal()
	if arriving != nil && arriving() {
		return fmt.Errorf("core: %d jobs not terminal and submissions still to come at horizon %g", stuck, horizon)
	}
	return fmt.Errorf("core: %d jobs not terminal at horizon %g", stuck, horizon)
}
