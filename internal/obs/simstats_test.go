package obs

import (
	"sync"
	"testing"
)

func TestSimStatsCounters(t *testing.T) {
	s := NewSimStats()
	// Two replications: counts accumulate, peak and horizon fold in as
	// maxima.
	s.Add(SimStatsSnapshot{EventsScheduled: 2, EventsFired: 1, PendingPeak: 2, GrowDecisions: 4, SimHorizon: 3})
	s.Add(SimStatsSnapshot{EventsScheduled: 1, EventsCanceled: 1, PendingPeak: 3, ShrinkDecisions: 1, SimHorizon: 5})

	snap := s.Snapshot()
	if snap.EventsScheduled != 3 || snap.EventsFired != 1 || snap.EventsCanceled != 1 {
		t.Fatalf("counts = %+v", snap)
	}
	if snap.PendingPeak != 3 {
		t.Errorf("peak = %d, want 3", snap.PendingPeak)
	}
	if snap.SimHorizon != 5 {
		t.Errorf("horizon = %g, want 5", snap.SimHorizon)
	}
	if snap.GrowDecisions != 4 || snap.ShrinkDecisions != 1 {
		t.Errorf("decisions = %+v", snap)
	}
	// A quieter replication must not regress the maxima.
	s.Add(SimStatsSnapshot{PendingPeak: 1, SimHorizon: 2})
	snap = s.Snapshot()
	if snap.PendingPeak != 3 || snap.SimHorizon != 5 {
		t.Errorf("maxima regressed: peak=%d horizon=%g", snap.PendingPeak, snap.SimHorizon)
	}
}

// The collector is shared by the concurrent replications of a run; the
// totals must be exact under concurrency (the race detector covers the
// safety half).
func TestSimStatsConcurrent(t *testing.T) {
	s := NewSimStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(SimStatsSnapshot{EventsScheduled: 1, EventsFired: 1, PendingPeak: int64(g + 1), SimHorizon: float64(i)})
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.EventsScheduled != 8000 || snap.EventsFired != 8000 {
		t.Fatalf("scheduled/fired = %d/%d, want 8000/8000", snap.EventsScheduled, snap.EventsFired)
	}
	if snap.PendingPeak != 8 {
		t.Fatalf("peak = %d, want the max across engines, 8", snap.PendingPeak)
	}
	if snap.SimHorizon != 999 {
		t.Fatalf("horizon = %g, want 999", snap.SimHorizon)
	}
}
