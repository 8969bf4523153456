package obs

import (
	"math"
	"sync/atomic"
)

// SimStats is the passive simulation-side collector: the sim engine
// flushes its kernel counters into it when a run loop returns, and the
// malleability manager feeds it per decision, all through nil-checked
// hooks, so a run can report kernel pressure (events
// scheduled/fired/canceled, peak pending) and per-policy adaptation
// activity (grow/shrink decisions) without touching the simulation's
// outcome.
//
// The contract, enforced by the koalalint obshook analyzer and the
// AllocsPerRun regression tests:
//
//   - Hook methods record only simulated time — never the wall clock.
//   - Hook methods never allocate.
//   - A nil *SimStats disables collection entirely; every feeding call
//     site is nil-guarded.
//
// All counters are atomics, so one collector may be shared by the
// concurrent replications of a run; the aggregate is exact even though
// the per-replication interleaving is not reproducible (sums of
// per-engine deltas are order-insensitive; peak and horizon fold in as
// maxima).
type SimStats struct {
	scheduled atomic.Int64
	fired     atomic.Int64
	canceled  atomic.Int64
	peak      atomic.Int64 // highest Pending() of any single engine

	grows   atomic.Int64
	shrinks atomic.Int64

	horizon atomic.Uint64 // float64 bits: furthest virtual time reached
}

// NewSimStats returns an empty collector.
func NewSimStats() *SimStats { return &SimStats{} }

// EngineTotals implements sim.Stats: it folds one engine run stretch
// into the collector. scheduled/fired/canceled are that engine's deltas
// since its previous flush; pendingPeak and now are absolutes kept as
// maxima across flushes and engines.
func (s *SimStats) EngineTotals(scheduled, fired, canceled uint64, pendingPeak int, now float64) {
	s.scheduled.Add(int64(scheduled))
	s.fired.Add(int64(fired))
	s.canceled.Add(int64(canceled))
	p := int64(pendingPeak)
	for {
		peak := s.peak.Load()
		if p <= peak || s.peak.CompareAndSwap(peak, p) {
			break
		}
	}
	bits := math.Float64bits(now)
	for {
		old := s.horizon.Load()
		if now <= math.Float64frombits(old) || s.horizon.CompareAndSwap(old, bits) {
			break
		}
	}
}

// GrowDecisions records n grow messages decided at simulated time now.
func (s *SimStats) GrowDecisions(now float64, n int) {
	s.grows.Add(int64(n))
}

// ShrinkDecisions records n shrink messages decided at simulated time now.
func (s *SimStats) ShrinkDecisions(now float64, n int) {
	s.shrinks.Add(int64(n))
}

// SimStatsSnapshot is a point-in-time copy of the counters.
type SimStatsSnapshot struct {
	EventsScheduled int64   `json:"events_scheduled"`
	EventsFired     int64   `json:"events_fired"`
	EventsCanceled  int64   `json:"events_canceled"`
	PendingPeak     int64   `json:"pending_peak"` // highest Pending() of any single engine
	GrowDecisions   int64   `json:"grow_decisions"`
	ShrinkDecisions int64   `json:"shrink_decisions"`
	SimHorizon      float64 `json:"sim_horizon"` // furthest virtual time reached (sim seconds)
}

// Snapshot copies the counters.
func (s *SimStats) Snapshot() SimStatsSnapshot {
	return SimStatsSnapshot{
		EventsScheduled: s.scheduled.Load(),
		EventsFired:     s.fired.Load(),
		EventsCanceled:  s.canceled.Load(),
		PendingPeak:     s.peak.Load(),
		GrowDecisions:   s.grows.Load(),
		ShrinkDecisions: s.shrinks.Load(),
		SimHorizon:      math.Float64frombits(s.horizon.Load()),
	}
}
