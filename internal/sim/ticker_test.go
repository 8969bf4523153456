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
	if !tk.stopped {
		t.Fatal("ticker not stopped after Stop")
	}
}

// TestTickerStopInsideCallbackLeavesOtherEventsAlone guards Stop from
// inside the callback: the fire in progress is no longer pending, so the
// Stop must cancel nothing, least of all an event the callback scheduled.
func TestTickerStopInsideCallbackLeavesOtherEventsAlone(t *testing.T) {
	e := New()
	otherFired := false
	var tk *Ticker
	tk = NewTicker(e, 1, func() {
		e.AfterOp(0.5, handlerFunc(func() { otherFired = true }), 0)
		tk.Stop()
	})
	e.RunUntil(10)
	if !otherFired {
		t.Fatal("event scheduled before Stop-in-callback never fired (stale ticker handle canceled it)")
	}
}

// TestTickerStopTwiceAfterReuse guards repeated Stops: once stopped, a
// second Stop must not touch an event scheduled in between.
func TestTickerStopTwiceAfterReuse(t *testing.T) {
	e := New()
	tk := NewTicker(e, 1, func() {})
	tk.Stop()
	fired := false
	e.AfterOp(1, handlerFunc(func() { fired = true }), 0)
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

// TestTickerFiresInSeqOrderAmongEvents pins the merge rule: arming takes
// the next seq, so a fire sorts exactly where an event scheduled at the
// arming would. Equal-time events queued before and after NewTicker fire
// on either side of the tick.
func TestTickerFiresInSeqOrderAmongEvents(t *testing.T) {
	e := New()
	var order []string
	e.AtOp(10, handlerFunc(func() { order = append(order, "before") }), 0)
	tk := NewTicker(e, 10, func() { order = append(order, "tick") })
	e.AtOp(10, handlerFunc(func() { order = append(order, "after") }), 0)
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3 (two events and the armed ticker)", e.Pending())
	}
	e.RunUntil(10)
	if len(order) != 3 || order[0] != "before" || order[1] != "tick" || order[2] != "after" {
		t.Fatalf("fire order %v, want [before tick after]", order)
	}
	// The re-armed fire at 20 lies beyond the horizon and stays pending.
	if e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("after RunUntil(10): now %g, pending %d; want 10 and 1", e.Now(), e.Pending())
	}
	tk.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", e.Pending())
	}
}
