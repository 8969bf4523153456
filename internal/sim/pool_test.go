package sim

import "testing"

// nop is package-level so scheduling it never allocates a closure.
var nop = handlerFunc(func() {})

// warmEvents is how many events the allocation tests push through an
// engine before measuring, so the free list and queue are warm.
const warmEvents = 256

func TestPendingExcludesCanceled(t *testing.T) {
	e := New()
	a := e.AtOp(1, nop, 0)
	e.AtOp(2, nop, 0)
	e.AtOp(3, nop, 0)
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	a.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d after cancel, want 2 (canceled events must not be counted)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", e.Pending())
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", e.Fired())
	}
}

func TestCancelMidHeapKeepsOrder(t *testing.T) {
	e := New()
	var order []float64
	evs := make([]*Event, 0, 10)
	for _, tm := range []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10} {
		tm := tm
		evs = append(evs, e.AtOp(tm, handlerFunc(func() { order = append(order, tm) }), 0))
	}
	evs[0].Cancel() // t=5, interior heap node
	evs[2].Cancel() // t=9
	e.Run()
	want := []float64{1, 2, 3, 4, 6, 7, 8, 10}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

type opRecorder struct {
	ops []int
}

func (r *opRecorder) OnEvent(op int) { r.ops = append(r.ops, op) }

func TestHandlerEventsInterleaveWithClosures(t *testing.T) {
	e := New()
	rec := &opRecorder{}
	var order []string
	e.AtOp(1, rec, 7)
	e.AtOp(2, handlerFunc(func() { order = append(order, "fn") }), 0)
	e.AfterOp(3, rec, 8)
	e.AtOp(3, handlerFunc(func() { e.ImmediatelyOp(rec, 9) }), 0)
	e.Run()
	if len(rec.ops) != 3 || rec.ops[0] != 7 || rec.ops[1] != 8 || rec.ops[2] != 9 {
		t.Fatalf("handler ops = %v, want [7 8 9]", rec.ops)
	}
	if len(order) != 1 {
		t.Fatalf("closure events fired %d times, want 1", len(order))
	}
}

func TestAtOpNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AtOp with nil handler did not panic")
		}
	}()
	New().AtOp(1, nil, 0)
}

// TestScheduleFireIsAllocationFree pins the free-list behaviour: once the
// pool is warm, a schedule+fire cycle performs zero heap allocations.
func TestScheduleFireIsAllocationFree(t *testing.T) {
	e := New()
	rec := &opRecorder{}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 2*warmEvents; i++ {
		e.AtOp(e.Now(), nop, 0)
	}
	e.Run()
	rec.ops = rec.ops[:0]
	allocs := testing.AllocsPerRun(100, func() {
		e.AtOp(e.Now()+1, nop, 0)
		e.AtOp(e.Now()+1, rec, 1)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestCancelIsAllocationFree pins that eager removal recycles in place.
func TestCancelIsAllocationFree(t *testing.T) {
	e := New()
	for i := 0; i < warmEvents; i++ {
		e.AtOp(e.Now(), nop, 0)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		ev := e.AtOp(e.Now()+1, nop, 0)
		ev.Cancel()
	})
	if allocs > 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects per cycle, want 0", allocs)
	}
}

// BenchmarkEngineHandler measures raw schedule+fire throughput of the
// kernel, the unit of work every simulated component pays per event.
func BenchmarkEngineHandler(b *testing.B) {
	e := New()
	rec := &opRecorder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.ops = rec.ops[:0]
		e.AtOp(e.Now()+1, rec, 0)
		e.AtOp(e.Now()+2, rec, 1)
		e.AtOp(e.Now()+0.5, rec, 2)
		e.Run()
	}
}

// BenchmarkEngineChurn stresses a deep heap with interleaved cancels, the
// shape of the polling loop under load.
func BenchmarkEngineChurn(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var evs [64]*Event
		for j := range evs {
			evs[j] = e.AtOp(e.Now()+float64(j%13)+1, nop, 0)
		}
		for j := 0; j < len(evs); j += 2 {
			evs[j].Cancel()
		}
		e.Run()
	}
}

// TestTeardownLeavesEngineEmpty pins the teardown contract: events still
// queued or reserved when an engine is torn down never fire, and a later
// engine reuses the released memory zeroed.
func TestTeardownLeavesEngineEmpty(t *testing.T) {
	a := New()
	fired := false
	for i := 0; i < 2*warmEvents; i++ {
		a.AtOp(float64(i), handlerFunc(func() { fired = true }), 0)
	}
	a.Reserve(5)
	a.Teardown()
	if a.Pending() != 0 {
		t.Fatalf("Pending() = %d after Teardown, want 0", a.Pending())
	}
	a.Run()
	if fired {
		t.Fatal("an event queued before Teardown fired")
	}
	b := New()
	for i := 0; i < 2*warmEvents; i++ {
		ev := b.AtOp(1, &opRecorder{}, i)
		if ev.engine != b || ev.canceled || ev.seq != uint64(i) {
			t.Fatalf("event %d of a new engine carries stale state: %+v", i, *ev)
		}
	}
	if b.Run() != 1 || b.Fired() != uint64(2*warmEvents) {
		t.Fatalf("new engine fired %d events, want %d", b.Fired(), 2*warmEvents)
	}
	for i, ev := range b.free {
		if ev.h != nil {
			t.Fatalf("free event %d still holds its handler %v", i, ev.h)
		}
	}
}
