package obs

import (
	"math"
	"sync/atomic"
)

// SimStats collects simulation statistics across the replications of a
// run: kernel pressure (events scheduled/fired/canceled, peak pending)
// and adaptation activity (grow/shrink decisions). Nothing inside the
// simulation calls it. The experiment driver adds each replication's
// totals once, when the replication ends, from counters the engine and
// the malleability manager keep anyway, so a collector cannot change a
// result. Everything it holds is simulated time and counts.
//
// All counters are atomics, so one collector may be shared by the
// concurrent replications of a run; the aggregate is exact even though
// the per-replication interleaving is not reproducible (counts are
// sums; peak and horizon fold in as maxima).
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

// Add folds one replication's totals into the collector: the counts
// are summed, PendingPeak and SimHorizon are kept as maxima.
func (s *SimStats) Add(r SimStatsSnapshot) {
	s.scheduled.Add(r.EventsScheduled)
	s.fired.Add(r.EventsFired)
	s.canceled.Add(r.EventsCanceled)
	s.grows.Add(r.GrowDecisions)
	s.shrinks.Add(r.ShrinkDecisions)
	for {
		peak := s.peak.Load()
		if r.PendingPeak <= peak || s.peak.CompareAndSwap(peak, r.PendingPeak) {
			break
		}
	}
	bits := math.Float64bits(r.SimHorizon)
	for {
		old := s.horizon.Load()
		if r.SimHorizon <= math.Float64frombits(old) || s.horizon.CompareAndSwap(old, bits) {
			break
		}
	}
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
