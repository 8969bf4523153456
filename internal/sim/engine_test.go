package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// handlerFunc adapts a closure to Handler.
type handlerFunc func()

func (f handlerFunc) OnEvent(int) { f() }

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		e.AtOp(tm, handlerFunc(func() { order = append(order, tm) }), 0)
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if e.Now() != 5 {
		t.Fatalf("final time %g, want 5", e.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtOp(7, handlerFunc(func() { order = append(order, i) }), 0)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at float64 = -1
	e.AtOp(10, handlerFunc(func() {
		e.AfterOp(5, handlerFunc(func() { at = e.Now() }), 0)
	}), 0)
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %g, want 15", at)
	}
}

func TestImmediatelyRunsAtCurrentTimeAfterPending(t *testing.T) {
	e := New()
	var order []string
	e.AtOp(3, handlerFunc(func() {
		e.ImmediatelyOp(handlerFunc(func() { order = append(order, "imm") }), 0)
	}), 0)
	e.AtOp(3, handlerFunc(func() { order = append(order, "second-at-3") }), 0)
	e.Run()
	want := []string{"second-at-3", "imm"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	ev := e.AtOp(1, handlerFunc(func() { fired = true }), 0)
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.canceled {
		t.Fatal("event not marked canceled after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New()
	ev := e.AtOp(1, nop, 0)
	ev.Cancel()
	ev.Cancel()
	e.Run()
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.AtOp(10, handlerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtOp(5, handlerFunc(func() {}), 0)
	}), 0)
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.AfterOp(-1, nop, 0)
}

func TestNaNTimePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	e.AtOp(math.NaN(), nop, 0)
}

func TestRunUntilRespectsHorizon(t *testing.T) {
	e := New()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.AtOp(tm, handlerFunc(func() { fired = append(fired, tm) }), 0)
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3: %v", len(fired), fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %g, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %g, want 10 (clock advances to horizon)", e.Now())
	}
}

func TestRunUntilWithOnlyCanceledEvents(t *testing.T) {
	e := New()
	ev := e.AtOp(2, nop, 0)
	ev.Cancel()
	e.RunUntil(5)
	if e.Now() != 5 {
		t.Fatalf("Now() = %g, want 5", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			e.AfterOp(1, handlerFunc(schedule), 0)
		}
	}
	e.AfterOp(1, handlerFunc(schedule), 0)
	e.Run()
	if depth != 100 {
		t.Fatalf("chained depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %g, want 100", e.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.AtOp(float64(i), nop, 0)
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of event times, the firing order is a non-decreasing
// sequence and every non-canceled event fires exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		for _, r := range raw {
			tm := float64(r)
			e.AtOp(tm, handlerFunc(func() { fired = append(fired, tm) }), 0)
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := New()
	var times []float64
	tk := NewTicker(e, 10, func() { times = append(times, e.Now()) })
	e.AtOp(35, handlerFunc(func() { tk.Stop() }), 0)
	e.Run()
	want := []float64{10, 20, 30}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
	if !tk.stopped {
		t.Fatal("ticker not stopped after Stop")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 1, func() {
		count++
		if count == 5 {
			tk.Stop()
		}
	})
	e.RunUntil(100)
	if count != 5 {
		t.Fatalf("ticker fired %d times, want 5", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

// TestBatchJoinBlockedByTickerAtItsTime pins the ticker half of the join
// rule: a ticker armed after the batch's event for the batch's time would
// fire between the batch and a late member, so the member cannot join. A
// ticker due at another time, or stopped, does not block the join.
func TestBatchJoinBlockedByTickerAtItsTime(t *testing.T) {
	e := New()
	var b Batch
	b.Open(e, 5, nop, 0)
	other := NewTicker(e, 3, func() {})
	if !b.Join(e, 5) {
		t.Fatal("a ticker due at another time blocked the join")
	}
	tk := NewTicker(e, 5, func() {})
	if b.Join(e, 5) {
		t.Fatal("joined past a ticker armed for the batch's time")
	}
	tk.Stop()
	if !b.Join(e, 5) {
		t.Fatal("a stopped ticker still blocks the join")
	}
	other.Stop()
}

// TestKernelCountersObserveLifecycle pins the counters a replication's
// SimStats totals are read from: they accumulate across run loops, a
// canceled event and a stopped ticker each count as a cancel, and the
// pending high-water mark outlives the drain.
func TestKernelCountersObserveLifecycle(t *testing.T) {
	e := New()
	want := func(scheduled, fired, canceled uint64) {
		t.Helper()
		if e.Scheduled() != scheduled || e.Fired() != fired || e.Canceled() != canceled {
			t.Fatalf("scheduled/fired/canceled = %d/%d/%d, want %d/%d/%d",
				e.Scheduled(), e.Fired(), e.Canceled(), scheduled, fired, canceled)
		}
		if e.Scheduled() != e.Fired()+e.Canceled()+uint64(e.Pending()) {
			t.Fatalf("scheduled %d != fired %d + canceled %d + pending %d",
				e.Scheduled(), e.Fired(), e.Canceled(), e.Pending())
		}
	}
	e.AtOp(5, nop, 0)
	e.AtOp(7, nop, 0).Cancel()
	e.AtOp(30, nop, 0)
	tk := NewTicker(e, 10, func() {})
	e.RunUntil(25) // the event at 5 and the ticks at 10 and 20; each tick re-arms
	want(6, 3, 1)
	tk.Stop()
	e.Run()
	want(6, 4, 2)
	if e.PendingPeak() != 3 || e.Now() != 30 {
		t.Fatalf("peak pending %d at t=%g, want 3 at t=30", e.PendingPeak(), e.Now())
	}
}
