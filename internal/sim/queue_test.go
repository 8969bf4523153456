package sim

import (
	"math"
	"testing"
)

// refQueue is the reference model the event queue is tested against: a
// flat slice popped by linear minimum scan over the same (time, seq) total
// order. Too slow to ship, trivially correct.
type refQueue struct {
	events []*Event
}

func (r *refQueue) push(ev *Event) { r.events = append(r.events, ev) }

func (r *refQueue) popMin() *Event {
	mi := 0
	for i, ev := range r.events {
		if eventBefore(ev, r.events[mi]) {
			mi = i
		}
		_ = ev
	}
	ev := r.events[mi]
	r.events = append(r.events[:mi], r.events[mi+1:]...)
	return ev
}

func (r *refQueue) remove(ev *Event) {
	for i, e := range r.events {
		if e == ev {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
	panic("refQueue: remove of unqueued event")
}

func (r *refQueue) len() int { return len(r.events) }

// popMin is the engine's pop, head then take, for the queue-level tests.
func (q *eventQueue) popMin() *Event {
	ev := q.head()
	q.take()
	return ev
}

// checkHeap fails the test unless every queued event records its index
// and none sorts before its parent.
func checkHeap(t *testing.T, q *eventQueue) {
	t.Helper()
	for i, ev := range q.h {
		if ev == nil || int(ev.pos) != i {
			t.Fatalf("heap slot %d holds %+v", i, ev)
		}
		if p := (i - 1) / 2; i > 0 && eventBefore(ev, q.h[p]) {
			t.Fatalf("heap slot %d (t=%g seq=%d) sorts before its parent (t=%g seq=%d)",
				i, ev.time, ev.seq, q.h[p].time, q.h[p].seq)
		}
	}
}

// pattern generates the time of the next insert for one insert regime.
type pattern func(rng *RNG, now float64) float64

var patterns = map[string]pattern{
	// Mostly-monotonic: the common simulation regime, inserts land within
	// a short horizon of the clock.
	"monotonic": func(rng *RNG, now float64) float64 {
		return now + rng.Float64()*10
	},
	// Bimodal: dense near-now traffic plus a sparse far tail.
	"bimodal": func(rng *RNG, now float64) float64 {
		if rng.Bool(0.2) {
			return now + 1e4 + rng.Float64()*1e5
		}
		return now + rng.Float64()*10
	},
	// Far-future-heavy: most events land far beyond the clock.
	"farfuture": func(rng *RNG, now float64) float64 {
		return now + 100 + rng.Float64()*1e6
	},
	// Ties: coarse quantization forces many exact time collisions, so the
	// FIFO (time, seq) tie-break carries the order.
	"ties": func(rng *RNG, now float64) float64 {
		return now + float64(int(rng.Float64()*8))
	},
}

// runEquivalence drives the event queue and the reference model through
// an identical randomized schedule/cancel/pop sequence and asserts the pop
// streams are the same events in the same order. checkHeap validates the
// heap after every operation.
func runEquivalence(t *testing.T, seed uint64, next pattern, cancelP float64) {
	t.Helper()
	var q eventQueue
	var ref refQueue
	rng := NewRNG(seed)
	var live []*Event // events queued in both structures
	now := 0.0
	seq := uint64(0)

	step := func() {
		switch {
		case ref.len() > 0 && rng.Bool(cancelP):
			// Cancel a random live event from both queues.
			i := int(rng.Float64() * float64(len(live)))
			if i == len(live) {
				i--
			}
			ev := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			q.remove(ev)
			ref.remove(ev)
		case ref.len() > 0 && rng.Bool(0.45):
			got, want := q.popMin(), ref.popMin()
			if got != want {
				t.Fatalf("pop mismatch: got (t=%g seq=%d), want (t=%g seq=%d)",
					got.time, got.seq, want.time, want.seq)
			}
			if got.time < now {
				t.Fatalf("pop went backwards: %g after %g", got.time, now)
			}
			now = got.time
			for i, ev := range live {
				if ev == got {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		default:
			ev := &Event{time: next(rng, now), seq: seq}
			seq++
			q.push(ev)
			ref.push(ev)
			live = append(live, ev)
		}
		if q.pending() != ref.len() {
			t.Fatalf("pending = %d, reference = %d", q.pending(), ref.len())
		}
		checkHeap(t, &q)
	}

	for i := 0; i < 4000; i++ {
		step()
	}
	// Drain: every remaining pop must match too.
	for ref.len() > 0 {
		got, want := q.popMin(), ref.popMin()
		if got != want {
			t.Fatalf("drain mismatch: got (t=%g seq=%d), want (t=%g seq=%d)",
				got.time, got.seq, want.time, want.seq)
		}
	}
	if q.pending() != 0 {
		t.Fatalf("drained queue pending = %d", q.pending())
	}
}

func TestCalQueueMatchesReferenceHeap(t *testing.T) {
	for name, next := range patterns {
		next := next
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				runEquivalence(t, seed, next, 0.1)
			}
		})
	}
}

func TestCalQueueCancelHeavy(t *testing.T) {
	for name, next := range patterns {
		next := next
		t.Run(name, func(t *testing.T) {
			runEquivalence(t, 7, next, 0.4)
		})
	}
}

// TestCalQueuePendingExactAfterCancels pins that remove keeps pending
// exact, for events removed from anywhere in the heap.
func TestCalQueuePendingExactAfterCancels(t *testing.T) {
	var q eventQueue
	var evs []*Event
	for i := 0; i < 100; i++ {
		// Half near, half far future, interleaved.
		tm := float64(i)
		if i%2 == 1 {
			tm = 1e6 + float64(i)
		}
		ev := &Event{time: tm, seq: uint64(i)}
		q.push(ev)
		evs = append(evs, ev)
	}
	if q.pending() != 100 {
		t.Fatalf("pending = %d, want 100", q.pending())
	}
	for i, ev := range evs {
		q.remove(ev)
		checkHeap(t, &q)
		if q.pending() != 100-i-1 || ev.pos != -1 {
			t.Fatalf("pending = %d, removed event at %d after %d removes", q.pending(), ev.pos, i+1)
		}
	}
}

// TestCalQueueInfiniteTime pins that events at an infinite time pop in
// seq order, like any other tie.
func TestCalQueueInfiniteTime(t *testing.T) {
	var q eventQueue
	inf := &Event{time: math.Inf(1), seq: 0}
	later := &Event{time: math.Inf(1), seq: 1}
	q.push(inf)
	q.push(later)
	if got := q.popMin(); got != inf {
		t.Fatalf("expected the lower-seq infinite event first")
	}
	if got := q.popMin(); got != later {
		t.Fatalf("expected the second infinite event")
	}
}

// TestCalQueueLastAt pins lastAt's answers: false when a same-time event
// sorts after, true when every later event is due later or there is none,
// also for an event far in the future and for one whose same-time
// successor was canceled.
func TestCalQueueLastAt(t *testing.T) {
	var q eventQueue
	a := &Event{time: 2, seq: 0}
	b := &Event{time: 2, seq: 1}
	c := &Event{time: 2.5, seq: 2}
	far := &Event{time: 1e9, seq: 3}
	farNext := &Event{time: 1e9, seq: 4}
	for _, ev := range []*Event{c, far, b, a, farNext} {
		q.push(ev)
	}
	checkHeap(t, &q)
	if q.lastAt(a) {
		t.Error("lastAt true with a same-time successor")
	}
	if !q.lastAt(b) {
		t.Error("lastAt false with a later-time successor")
	}
	if !q.lastAt(c) {
		t.Error("lastAt false with no event due at its time after it")
	}
	if q.lastAt(far) {
		t.Error("lastAt true for a far-future event with a same-time successor")
	}
	q.remove(farNext)
	if !q.lastAt(far) {
		t.Error("lastAt false for the last far-future event")
	}
}
