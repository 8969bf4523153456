package core

import (
	"fmt"

	"repro/internal/koala"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ManagerConfig tunes the malleability manager.
type ManagerConfig struct {
	// Policy distributes grow/shrink amounts over jobs (FPSMA or EGS);
	// nil means FPSMA.
	Policy Policy
	// Approach decides when management rounds run (PRA or PWA); nil
	// means PRA.
	Approach Approach
	// GrowthReserve keeps this many processors per cluster off-limits to
	// growth, "in order to leave always a minimal number of available
	// processors to local users" (§V-B). Initial placement is not affected.
	GrowthReserve int
}

// Manager is the malleability manager added to KOALA's scheduler (§V-A): it
// is responsible for triggering changes of the resource allocations of
// malleable jobs. It implements koala.Hooks and is driven by the scheduler's
// periodic KIS polling (so background load is accounted for dynamically) and
// by availability/blocked events.
type Manager struct {
	engine *sim.Engine
	sched  *koala.Scheduler
	cfg    ManagerConfig

	growMsgs   *stats.Counter // grow messages over time (Fig. 7f)
	shrinkMsgs *stats.Counter // shrink messages over time (Fig. 8f)

	// prevAvail remembers the last observed growth headroom per site (by
	// dense site index), with prevSeen marking sites observed at least
	// once. Growth rounds run when processors *become available* (§V-B) —
	// an edge trigger, not a level trigger — so a site whose availability
	// is unchanged since the previous poll is left alone.
	prevAvail []int
	prevSeen  []bool
}

// NewManager attaches a malleability manager to the scheduler.
func NewManager(engine *sim.Engine, sched *koala.Scheduler, cfg ManagerConfig) *Manager {
	if cfg.Policy == nil {
		cfg.Policy = FPSMA{}
	}
	if cfg.Approach == nil {
		cfg.Approach = PRA{}
	}
	if cfg.GrowthReserve < 0 {
		panic(fmt.Sprintf("core: negative growth reserve %d", cfg.GrowthReserve))
	}
	m := &Manager{
		engine:     engine,
		sched:      sched,
		cfg:        cfg,
		growMsgs:   stats.NewCounter(),
		shrinkMsgs: stats.NewCounter(),
		prevAvail:  make([]int, len(sched.Sites())),
		prevSeen:   make([]bool, len(sched.Sites())),
	}
	sched.SetHooks(m)
	return m
}

// GrowOps returns the cumulative count of grow operations (Fig. 7f).
func (m *Manager) GrowOps() *stats.Counter { return m.growMsgs }

// ShrinkOps returns the cumulative count of shrink operations.
func (m *Manager) ShrinkOps() *stats.Counter { return m.shrinkMsgs }

// Poll implements koala.Hooks: one management round per scheduler poll.
func (m *Manager) Poll(snap koala.Snapshot) {
	m.cfg.Approach.OnPoll(m, snap)
}

// ProcessorsAvailable implements koala.Hooks.
func (m *Manager) ProcessorsAvailable() {
	m.cfg.Approach.OnProcessorsAvailable(m)
}

// PlacementBlocked implements koala.Hooks.
func (m *Manager) PlacementBlocked(j *koala.Job) bool {
	return m.cfg.Approach.OnPlacementBlocked(m, j)
}

// availableForGrowth computes how many processors of site i the manager may
// hand to malleable jobs right now: the snapshot's idle count minus claims
// still in flight, minus growth already granted but not yet held, minus the
// local-user reserve.
func (m *Manager) availableForGrowth(snap koala.Snapshot, i int) int {
	return snap.IdleAt(i) - m.sched.PendingClaimsAt(i) -
		m.sched.ReservedAt(i) - m.cfg.GrowthReserve
}

// record adds grow and shrink messages to the Fig. 7f/8f series.
func (m *Manager) record(grow, shrink int) {
	now := m.engine.Now()
	if grow > 0 {
		m.growMsgs.Inc(now, grow)
	}
	if shrink > 0 {
		m.shrinkMsgs.Inc(now, shrink)
	}
}

// recordSince records the messages the scheduler counted since it read
// (grow, shrink) from Scheduler.Messages: everything one policy round
// sent, whichever kind (Equipartition's grow round also shrinks).
func (m *Manager) recordSince(grow, shrink uint64) {
	g, s := m.sched.Messages()
	m.record(int(g-grow), int(s-shrink))
}

// growSiteAt runs one grow round on the site with dense index i, with the
// given number of available processors as the grow value, recording the
// messages the policy sent (the paper's Fig. 7f metric). Jobs at their
// maximum still receive offers, as in the Fig. 4/5 pseudo-code — they
// simply decline.
func (m *Manager) growSiteAt(i, avail int) {
	jobs := m.sched.RunningMalleableJobsAt(i)
	if len(jobs) == 0 || avail <= 0 {
		return
	}
	g, s := m.sched.Messages()
	m.cfg.Policy.Grow(jobs, avail)
	m.recordSince(g, s)
}

// growAll runs grow rounds on the sites whose availability has increased
// since the last observation. The grow value of a round is the number of
// processors that *became* available since then (clamped to the current
// headroom): growth is driven by availability events — a job finishing, a
// local user leaving — exactly as §V-B describes, rather than by repeatedly
// re-offering idle capacity that the policies already declined.
func (m *Manager) growAll(snap koala.Snapshot) {
	for i := range m.sched.Sites() {
		avail := m.availableForGrowth(snap, i)
		grow := avail
		if m.prevSeen[i] {
			base := m.prevAvail[i]
			if base < 0 {
				base = 0
			}
			grow = avail - base
		}
		m.prevSeen[i] = true
		if grow > 0 && avail > 0 {
			if grow > avail {
				grow = avail
			}
			m.growSiteAt(i, grow)
			// Remember the post-round headroom (accepted growth is now in
			// flight and discounted by availableForGrowth).
			m.prevAvail[i] = m.availableForGrowth(snap, i)
			continue
		}
		m.prevAvail[i] = avail
	}
}

// shrinkSiteAt requests need processors back from the malleable jobs of the
// site with dense index i, recording the messages the policy sent.
func (m *Manager) shrinkSiteAt(i, need int) {
	jobs := m.sched.RunningMalleableJobsAt(i)
	if len(jobs) == 0 || need <= 0 {
		return
	}
	g, s := m.sched.Messages()
	m.cfg.Policy.Shrink(jobs, need)
	m.recordSince(g, s)
}

// blockedSite chooses where shrinks make room for the blocked queue head
// j: the site where the fewest shrunk processors make it fit, and that
// shortfall. It reports false when no shrink should run — either the job
// already fits somewhere (the placement failure was transient, e.g.
// in-flight growth), or not even every running malleable job at its
// minimum size could host it, in which case it grows the running
// applications instead (§V-B).
func (m *Manager) blockedSite(j *koala.Job) (site, short int, ok bool) {
	need := j.Spec.Size
	snap := m.sched.KIS().Last()
	best, bestShort := -1, 0
	for i := range m.sched.Sites() {
		idle := snap.IdleAt(i) - m.sched.PendingClaimsAt(i) - m.sched.ReservedAt(i)
		short := need - idle
		if short <= 0 {
			return 0, 0, false
		}
		if m.shrinkableAt(i) >= short && (best < 0 || short < bestShort) {
			best, bestShort = i, short
		}
	}
	if best < 0 {
		m.growAll(snap)
		return 0, 0, false
	}
	return best, bestShort, true
}

// shrinkableAt returns how many processors the malleable jobs of site i
// could still give back (planned minus minimum, summed).
func (m *Manager) shrinkableAt(i int) int {
	total := 0
	for _, j := range m.sched.RunningMalleableJobsAt(i) {
		if slack := j.PlannedProcs() - j.MinProcs(); slack > 0 {
			total += slack
		}
	}
	return total
}
