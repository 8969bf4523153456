package sim

import (
	"math"
	"testing"
)

// refQueue is the reference model the calendar queue is tested against: a
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
func (q *calQueue) popMin() *Event {
	ev := q.head()
	q.take()
	return ev
}

// pattern generates the time of the next insert for one of the insert
// regimes the queue is tuned for.
type pattern func(rng *RNG, now float64) float64

var patterns = map[string]pattern{
	// Mostly-monotonic: the common simulation regime, inserts land within
	// a short horizon of the clock.
	"monotonic": func(rng *RNG, now float64) float64 {
		return now + rng.Float64()*10
	},
	// Bimodal: dense near-now traffic plus a sparse far tail (the
	// pre-scheduled workload submissions), exercising the overflow rung.
	"bimodal": func(rng *RNG, now float64) float64 {
		if rng.Bool(0.2) {
			return now + 1e4 + rng.Float64()*1e5
		}
		return now + rng.Float64()*10
	},
	// Far-future-heavy: most events beyond the year, so year advances and
	// migrations dominate.
	"farfuture": func(rng *RNG, now float64) float64 {
		return now + 100 + rng.Float64()*1e6
	},
	// Ties: coarse quantization forces many exact time collisions, so the
	// FIFO (time, seq) tie-break carries the order.
	"ties": func(rng *RNG, now float64) float64 {
		return now + float64(int(rng.Float64()*8))
	},
}

// runEquivalence drives the calendar queue and the reference model through
// an identical randomized schedule/cancel/pop sequence and asserts the pop
// streams are the same events in the same order. debugCheck validates
// every queue invariant on every operation for the duration.
func runEquivalence(t *testing.T, seed uint64, next pattern, cancelP float64) {
	t.Helper()
	debugCheck = true
	defer func() { debugCheck = false }()

	var q calQueue
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
// exact in both the in-year buckets and the overflow rung.
func TestCalQueuePendingExactAfterCancels(t *testing.T) {
	debugCheck = true
	defer func() { debugCheck = false }()
	var q calQueue
	var evs []*Event
	for i := 0; i < 100; i++ {
		// Half in the first year, half far future (the rung).
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
		if q.pending() != 100-i-1 {
			t.Fatalf("pending = %d after %d removes", q.pending(), i+1)
		}
	}
}

// TestCalQueueGrowPreservesOrder forces bucket-array doubling mid-year and
// checks the pop order is still globally sorted.
func TestCalQueueGrowPreservesOrder(t *testing.T) {
	debugCheck = true
	defer func() { debugCheck = false }()
	var q calQueue
	rng := NewRNG(3)
	n := 6 * minBuckets // over the 2×buckets growth threshold, twice
	for i := 0; i < n; i++ {
		q.push(&Event{time: rng.Float64() * float64(minBuckets), seq: uint64(i)})
	}
	if len(q.buckets) <= minBuckets {
		t.Fatalf("bucket array did not grow: %d", len(q.buckets))
	}
	var last *Event
	for q.pending() > 0 {
		ev := q.popMin()
		if last != nil && !eventBefore(last, ev) {
			t.Fatalf("pop order broken: (t=%g seq=%d) after (t=%g seq=%d)",
				ev.time, ev.seq, last.time, last.seq)
		}
		last = ev
	}
}

// TestCalQueueYearAdvanceAfterCancel is the regression for the year's last
// event being canceled rather than popped: the next head() must re-anchor
// on the rung without tripping over the stale current bucket.
func TestCalQueueYearAdvanceAfterCancel(t *testing.T) {
	debugCheck = true
	defer func() { debugCheck = false }()
	var q calQueue
	near := &Event{time: 1, seq: 0}
	far := &Event{time: 1e9, seq: 1}
	q.push(near)
	q.push(far)
	q.remove(near)
	if got := q.popMin(); got != far {
		t.Fatalf("popped (t=%g seq=%d), want the far event", got.time, got.seq)
	}
	if q.pending() != 0 {
		t.Fatalf("pending = %d", q.pending())
	}
}

// TestCalQueueInfiniteTime covers the infinite-anchor path of advanceYear
// (the engine parks horizon sentinels at +Inf).
func TestCalQueueInfiniteTime(t *testing.T) {
	debugCheck = true
	defer func() { debugCheck = false }()
	var q calQueue
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
// follows in the bucket, true when the successor is later or there is
// none, and false for an event waiting in the unsorted rung.
func TestCalQueueLastAt(t *testing.T) {
	var q calQueue
	a := &Event{time: 2, seq: 0}
	b := &Event{time: 2, seq: 1}
	c := &Event{time: 2.5, seq: 2}
	far := &Event{time: 1e9, seq: 3}
	for _, ev := range []*Event{a, b, c, far} {
		q.push(ev)
	}
	if a.bucket != b.bucket || b.bucket != c.bucket {
		t.Fatalf("buckets %d, %d, %d: the case needs one bucket", a.bucket, b.bucket, c.bucket)
	}
	if q.lastAt(a) {
		t.Error("lastAt true with a same-time successor")
	}
	if !q.lastAt(b) {
		t.Error("lastAt false with a later-time successor")
	}
	if !q.lastAt(c) {
		t.Error("lastAt false for the last event of the bucket")
	}
	if far.bucket != bucketOverflow {
		t.Fatalf("far event in bucket %d, want the overflow rung", far.bucket)
	}
	if q.lastAt(far) {
		t.Error("lastAt true for an event in the overflow rung")
	}
}
