package sim

import (
	"testing"

	"repro/internal/obs"
)

// countingStats is a minimal Stats implementation for flush-accounting.
type countingStats struct {
	scheduled, fired, canceled uint64
	peak                       int
	now                        float64
	flushes                    int
}

func (c *countingStats) EngineTotals(scheduled, fired, canceled uint64, pendingPeak int, now float64) {
	c.scheduled += scheduled
	c.fired += fired
	c.canceled += canceled
	if pendingPeak > c.peak {
		c.peak = pendingPeak
	}
	c.now = now
	c.flushes++
}

func TestStatsFlushObservesLifecycle(t *testing.T) {
	e := New()
	st := &countingStats{}
	e.SetStats(st)
	e.At(5, nop)
	ev := e.At(7, nop)
	ev.Cancel()
	e.Run()
	if st.scheduled != 2 || st.fired != 1 || st.canceled != 1 {
		t.Fatalf("scheduled=%d fired=%d canceled=%d, want 2/1/1",
			st.scheduled, st.fired, st.canceled)
	}
	if st.peak != 2 {
		t.Fatalf("peak = %d, want 2", st.peak)
	}
	if st.now != 5 {
		t.Fatalf("now = %g, want 5", st.now)
	}
}

// TestStatsFlushReportsDeltas pins that repeated Run/RunUntil calls do
// not double-count: each flush carries only the events since the last.
func TestStatsFlushReportsDeltas(t *testing.T) {
	e := New()
	st := &countingStats{}
	e.SetStats(st)
	e.At(1, nop)
	e.At(10, nop)
	e.RunUntil(5)
	if st.flushes != 1 || st.scheduled != 2 || st.fired != 1 {
		t.Fatalf("after first stretch: flushes=%d scheduled=%d fired=%d, want 1/2/1",
			st.flushes, st.scheduled, st.fired)
	}
	e.Run()
	if st.flushes != 2 || st.scheduled != 2 || st.fired != 2 {
		t.Fatalf("after second stretch: flushes=%d scheduled=%d fired=%d, want 2/2/2",
			st.flushes, st.scheduled, st.fired)
	}
}

func TestSetStatsNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetStats(nil) did not panic")
		}
	}()
	New().SetStats(nil)
}

// TestStatsKeepsHotPathAllocationFree pins that installing the real
// obs.SimStats collector does not reintroduce allocations on the
// schedule/fire/cancel hot path or in the flush.
func TestStatsKeepsHotPathAllocationFree(t *testing.T) {
	e := New()
	e.SetStats(obs.NewSimStats())
	for i := 0; i < 2*warmEvents; i++ {
		e.At(e.Now(), nop)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.At(e.Now()+1, nop)
		ev := e.At(e.Now()+2, nop)
		ev.Cancel()
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire+cancel+flush with stats allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestStatsDoNotChangeResults drives the same event program with and
// without the collector and requires identical fire ordering: the
// collector is pure observation.
func TestStatsDoNotChangeResults(t *testing.T) {
	run := func(withStats bool) []int {
		e := New()
		if withStats {
			e.SetStats(obs.NewSimStats())
		}
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.At(float64((i*7)%13), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	plain, hooked := run(false), run(true)
	if len(plain) != len(hooked) {
		t.Fatalf("fired %d events with stats, %d without", len(hooked), len(plain))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("fire order diverges at %d: %d vs %d", i, plain[i], hooked[i])
		}
	}
}
