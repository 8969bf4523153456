package sim

import "testing"

func TestTickerStopBeforeFirstFire(t *testing.T) {
	e := New()
	fired := 0
	tk := NewTicker(e, 10, func() { fired++ })
	tk.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop before first fire, want 0", e.Pending())
	}
	e.RunUntil(100)
	if fired != 0 {
		t.Fatalf("stopped ticker fired %d times", fired)
	}
	if !tk.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

// TestTickerStopInsideCallbackLeavesOtherEventsAlone guards the event-pool
// hazard: the event that just fired the tick is recycled, so a Stop from
// inside the callback must not cancel whatever event reused that struct.
func TestTickerStopInsideCallbackLeavesOtherEventsAlone(t *testing.T) {
	e := New()
	otherFired := false
	var tk *Ticker
	tk = NewTicker(e, 1, func() {
		e.After(0.5, func() { otherFired = true })
		tk.Stop()
	})
	e.RunUntil(10)
	if !otherFired {
		t.Fatal("event scheduled before Stop-in-callback never fired (stale ticker handle canceled it)")
	}
}

// TestTickerStopTwiceAfterReuse guards the same hazard for repeated Stops:
// once stopped, a second Stop must not touch the (recycled, reused) event.
func TestTickerStopTwiceAfterReuse(t *testing.T) {
	e := New()
	tk := NewTicker(e, 1, func() {})
	tk.Stop()
	fired := false
	e.After(1, func() { fired = true }) // reuses the canceled tick event
	tk.Stop()
	e.RunUntil(5)
	if !fired {
		t.Fatal("second Stop canceled an unrelated reused event")
	}
}

// TestTickerSteadyStateIsAllocationFree pins the reused reschedule closure:
// a warm ticker costs zero allocations per fire.
func TestTickerSteadyStateIsAllocationFree(t *testing.T) {
	e := New()
	NewTicker(e, 1, func() {})
	e.RunUntil(float64(warmEvents)) // warm pool and heap
	allocs := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + 10)
	})
	if allocs > 0 {
		t.Fatalf("warm ticker allocates %.2f objects per 10 fires, want 0", allocs)
	}
}
