package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BackgroundSpec parameterises the local-user background load of §V-B:
// users who bypass KOALA and seize nodes directly at their cluster's local
// resource manager. KOALA only discovers these through KIS polling.
type BackgroundSpec struct {
	// MeanInterArrival is the mean time between local sessions per cluster.
	MeanInterArrival float64
	// MeanDuration is the mean session length.
	MeanDuration float64
	// MaxNodes bounds the nodes one session grabs (uniform in [1,MaxNodes]).
	MaxNodes int
	// Seed drives the generator.
	Seed uint64
}

// Validate checks the parameters.
func (s *BackgroundSpec) Validate() error {
	if s.MeanInterArrival <= 0 || s.MeanDuration <= 0 || s.MaxNodes <= 0 {
		return fmt.Errorf("workload: background spec must be positive: %+v", s)
	}
	return nil
}

// BackgroundLoad drives local-user sessions on every cluster of the grid.
type BackgroundLoad struct {
	engine *sim.Engine
	rng    *sim.RNG
	spec   BackgroundSpec

	stopped bool
}

// bgSite drives the sessions of one cluster. Arrivals and session ends
// both fire on the bgSite itself (a session end's op code carries its
// node count), so steady-state background load allocates nothing per
// session.
type bgSite struct {
	b   *BackgroundLoad
	c   *cluster.Cluster
	rng *sim.RNG
}

// opArrive is the bgSite's arrival op; every other op is a session end,
// whose node count is at least 1.
const opArrive = 0

// OnEvent implements sim.Handler: a local user arrives, or a session of
// op nodes ended and gives the nodes back. The cluster accounting
// guarantees a session end cannot release more than is held.
func (s *bgSite) OnEvent(op int) {
	if op != opArrive {
		s.c.ReleaseBackground(op)
		return
	}
	if s.b.stopped {
		return
	}
	s.b.runSession(s)
	s.scheduleNext()
}

// StartBackground begins generating background sessions on all clusters.
func StartBackground(engine *sim.Engine, grid *cluster.Multicluster, spec BackgroundSpec) (*BackgroundLoad, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := &BackgroundLoad{engine: engine, rng: sim.NewRNG(spec.Seed), spec: spec}
	for _, c := range grid.Clusters() {
		s := &bgSite{b: b, c: c, rng: b.rng.Split()}
		s.scheduleNext()
	}
	return b, nil
}

// Stop ends session generation (running sessions still terminate normally).
func (b *BackgroundLoad) Stop() { b.stopped = true }

// OnEvent implements sim.Handler: a scheduled stop, so a run can end the
// background load at a virtual time without a closure.
func (b *BackgroundLoad) OnEvent(int) { b.Stop() }

func (s *bgSite) scheduleNext() {
	delay := s.rng.ExpFloat64() * s.b.spec.MeanInterArrival
	s.b.engine.AfterOp(delay, s, opArrive)
}

func (b *BackgroundLoad) runSession(s *bgSite) {
	c, rng := s.c, s.rng
	want := 1 + rng.Intn(b.spec.MaxNodes)
	if want > c.Idle() {
		want = c.Idle()
	}
	if want <= 0 || c.SeizeBackground(want) != nil {
		return
	}
	duration := rng.ExpFloat64() * b.spec.MeanDuration
	b.engine.AfterOp(duration, s, want)
}
