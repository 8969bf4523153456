package sim

import (
	"math"
	"slices"
	"testing"
)

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestReservationAtOpPanics pins AtOp's refusals: a used-up reservation,
// a NaN time, and a (time, seq) behind the event now firing, inside a
// handler and between run loops. A time equal to a horizon that RunUntil
// advanced the clock to is legal: no fire sits there.
func TestReservationAtOpPanics(t *testing.T) {
	rec := &opRecorder{}
	e := New()
	r := e.Reserve(1)
	r.AtOp(1, rec, 0)
	mustPanic(t, "AtOp on a used-up reservation", func() { r.AtOp(2, rec, 1) })
	mustPanic(t, "AtOp at NaN", func() { e.Reserve(1).AtOp(math.NaN(), rec, 0) })

	// The event at 5 takes a seq above the reserved one, so the reserved
	// seq at 5 would sort before it, and a time before 5 is in the past.
	e = New()
	r = e.Reserve(1)
	fired := false
	e.AtOp(5, handlerFunc(func() {
		fired = true
		mustPanic(t, "AtOp behind the firing event", func() { r.AtOp(5, rec, 0) })
		mustPanic(t, "AtOp before the clock", func() { r.AtOp(4, rec, 0) })
	}), 0)
	e.RunUntil(5)
	if !fired {
		t.Fatal("the event at 5 did not fire")
	}
	mustPanic(t, "AtOp behind the last fire, between run loops", func() { r.AtOp(5, rec, 0) })

	e.RunUntil(10)
	r.AtOp(10, rec, 7)
	e.Run()
	if len(rec.ops) != 1 || rec.ops[0] != 7 || e.Now() != 10 {
		t.Fatalf("ops %v at t=%g, want the reserved op 7 fired at the horizon 10", rec.ops, e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after the drain, want 0", e.Pending())
	}
}

// TestReservedSeqsCountAsScheduledAndPending pins the counters: a
// reserved seq is scheduled when Reserve takes it and pending until it
// fires, so the peak matches a stream queued at once.
func TestReservedSeqsCountAsScheduledAndPending(t *testing.T) {
	e := New()
	rec := &opRecorder{}
	r := e.Reserve(3)
	e.AtOp(2, rec, 9)
	if e.Scheduled() != 4 || e.Pending() != 4 || e.PendingPeak() != 4 {
		t.Fatalf("scheduled/pending/peak = %d/%d/%d after reserving 3 and queuing 1, want 4/4/4",
			e.Scheduled(), e.Pending(), e.PendingPeak())
	}
	r.AtOp(1, rec, 0)
	e.RunUntil(1)
	r.AtOp(2, rec, 1)
	r.AtOp(2, rec, 2)
	e.Run()
	if e.Fired() != 4 || e.Pending() != 0 || e.PendingPeak() != 4 {
		t.Fatalf("fired/pending/peak = %d/%d/%d, want 4/0/4", e.Fired(), e.Pending(), e.PendingPeak())
	}
	// The reserved seqs came before the event at 2, so they fire first.
	if want := []int{0, 1, 2, 9}; !slices.Equal(rec.ops, want) {
		t.Fatalf("ops %v, want %v", rec.ops, want)
	}
}
