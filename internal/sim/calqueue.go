package sim

import "math"

// The event queue is a calendar queue with an unsorted overflow rung,
// tuned for the mostly-monotonic event streams this simulator produces
// (most inserts land within seconds of the clock, a long sparse tail —
// the pre-scheduled workload submissions — stretches hours ahead).
//
// The current "year" [yearStart, yearEnd) is split into len(buckets)
// equal-width buckets; each bucket holds its events sorted by the total
// order (time, seq), so draining the buckets in index order pops the
// global minimum. Events at or beyond yearEnd live in the overflow
// rung, which is deliberately unsorted: far-future pushes are O(1)
// appends and far-future cancels are O(1) swap-deletes, instead of the
// O(n) shifting a sorted rung pays on the bimodal time distributions
// the simulator produces. When the in-year buckets run dry, one linear
// scan of the rung finds the minimum, the year re-anchors there, and
// the events that now fall inside it migrate into the buckets (O(1)
// swap-fill per migrated event). Both structures retain their backing
// arrays, so the steady state allocates nothing.
//
// Ordering is a total order (seq is unique and ties on time break FIFO
// by scheduling sequence). Every in-year event is earlier than
// yearEnd, every rung event is at or beyond it, and the rung is only
// consulted when the year is empty — so the pop sequence, and with it
// every simulation result, is byte-identical to a (time, seq)
// min-heap's regardless of bucket layout, rung order, width retuning
// or resizes. The equivalence property tests in calqueue_test.go pin
// exactly that against a reference heap.
//
// Width self-tunes to the event flow: each year switch re-derives the
// bucket width from the pop rate the previous year observed (amortised
// O(1) per event), so the dense near-now traffic spreads across
// buckets at the target occupancy while the sparse far tail waits in
// the rung. Insert and pop are amortised O(1): an insert is a
// tail-biased sorted placement into one small bucket (or a rung
// append), a pop advances a cursor.
const (
	bucketNone     int32 = -1 // not queued
	bucketOverflow int32 = -2 // in the overflow rung

	// minBuckets is the initial and minimum bucket count; maxBuckets
	// caps the doubling so a pathological population cannot ask for
	// unbounded bucket arrays.
	minBuckets = 64
	maxBuckets = 1 << 16

	// occupancy is the targeted events-per-bucket of the width tuner:
	// wide enough that empty-bucket skips stay rare, narrow enough that
	// in-bucket sorted inserts stay short.
	occupancy = 2.0

	// retuneMinPops is the minimum number of pops a year must have seen
	// before its observed event rate is trusted to retune the width.
	retuneMinPops = 32

	// seedCap is the initial capacity every bucket is born with, diced
	// out of one flat allocation: at the target occupancy a bucket
	// rarely outgrows it, so the first visit to a bucket does not
	// allocate and the steady state stays allocation-free. A bucket
	// that does outgrow it reallocates once and keeps the larger
	// backing from then on.
	seedCap = 4
)

// calQueue is the engine's event queue. The zero value is an empty
// queue; the bucket array is materialised on first use.
type calQueue struct {
	yearStart float64
	yearEnd   float64
	width     float64
	invWidth  float64

	// all is the full grown bucket storage; buckets is the active
	// prefix (the current year). Shrinking is a re-slice, growing
	// extends all — either way bucket backing arrays are retained.
	all     [][]*Event
	buckets [][]*Event

	// cur is the bucket being drained; buckets before it are empty.
	// cursor is the consumed prefix of buckets[cur] (popped slots are
	// nilled and reclaimed when the bucket drains or compacts).
	cur    int
	cursor int
	inYear int

	// overflow is the unsorted far-future rung; an event's pos is its
	// index so cancel can swap-delete in O(1).
	overflow []*Event

	// pops counts events popped since the last year switch; lastPop is
	// the time of the most recent pop. Together they estimate the mean
	// event spacing the width tuner targets.
	pops    int
	lastPop float64
}

// eventBefore is the queue's total order: time, FIFO tie-break on
// scheduling sequence.
func eventBefore(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// pending returns the number of live queued events.
func (q *calQueue) pending() int { return q.inYear + len(q.overflow) }

// bucketOf maps a time to its bucket index, clamped to the active
// range. Clamping keeps the cross-bucket ordering invariant: an event
// before the year anchors at the front of bucket 0, and float rounding
// at the top edge stays inside the last bucket.
//
//koalalint:hotpath
func (q *calQueue) bucketOf(t float64) int {
	d := (t - q.yearStart) * q.invWidth
	if !(d > 0) { // also catches NaN products of infinite anchors
		return 0
	}
	b := int(d)
	if b >= len(q.buckets) {
		b = len(q.buckets) - 1
	}
	return b
}

// push inserts ev (time and seq already set) into the queue.
//
//koalalint:hotpath
func (q *calQueue) push(ev *Event) {
	if q.buckets == nil {
		q.init()
	}
	if ev.time >= q.yearEnd {
		// Far future: O(1) append to the unsorted rung.
		ev.bucket, ev.pos = bucketOverflow, int32(len(q.overflow))
		//koalalint:alloc amortized: the overflow rung retains its capacity across events
		q.overflow = append(q.overflow, ev)
		q.check("pushOverflow")
		return
	}
	b := q.bucketOf(ev.time)
	if b < q.cur {
		// The event lands in a bucket the scan already passed — possible
		// when the clock (or a horizon) sits behind the queue head. Passed
		// buckets are empty, so re-open it as the current bucket; the old
		// current bucket keeps its sorted remainder after compaction.
		q.compactCur()
		q.cur, q.cursor = b, 0
	}
	q.bucketInsert(b, ev)
	q.inYear++
	if q.inYear > 2*len(q.buckets) && len(q.buckets) < maxBuckets {
		q.grow()
	}
	q.check("push")
}

// init materialises the bucket array on first use (the Engine zero
// value is ready to use, so this cannot live in a constructor).
func (q *calQueue) init() {
	q.all = make([][]*Event, minBuckets)
	seedBuckets(q.all)
	q.buckets = q.all
	q.width = 1
	q.invWidth = 1
	q.yearStart = 0
	q.yearEnd = float64(minBuckets)
}

// seedBuckets dices one flat allocation into empty seedCap-capacity
// slices for every bucket slot, so first touches do not allocate.
func seedBuckets(bs [][]*Event) {
	flat := make([]*Event, len(bs)*seedCap)
	for i := range bs {
		bs[i] = flat[i*seedCap : i*seedCap : (i+1)*seedCap]
	}
}

// bucketInsert places ev at its sorted position in bucket b. The scan
// starts at the tail: event streams are mostly monotonic, so the common
// case is zero or one comparison and no shifting.
//
//koalalint:hotpath
func (q *calQueue) bucketInsert(b int, ev *Event) {
	s := q.buckets[b]
	lo := 0
	if b == q.cur {
		lo = q.cursor
	}
	i := len(s)
	for i > lo && eventBefore(ev, s[i-1]) {
		i--
	}
	//koalalint:alloc amortized: bucket slices retain their capacity across events
	s = append(s, nil)
	for j := len(s) - 1; j > i; j-- {
		s[j] = s[j-1]
		s[j].pos = int32(j)
	}
	s[i] = ev
	ev.bucket, ev.pos = int32(b), int32(i)
	q.buckets[b] = s
}

// compactCur moves the unconsumed remainder of the current bucket to
// its front so the bucket is a plain sorted bucket again.
//
//koalalint:hotpath
func (q *calQueue) compactCur() {
	if q.cursor == 0 {
		return
	}
	s := q.buckets[q.cur]
	n := copy(s, s[q.cursor:])
	for i := 0; i < n; i++ {
		s[i].pos = int32(i)
	}
	for i := n; i < len(s); i++ {
		s[i] = nil
	}
	q.buckets[q.cur] = s[:n]
	q.cursor = 0
}

// head returns the earliest queued event without consuming it, or nil
// when the queue is empty. It advances the bucket scan (and the year)
// as a side effect, which is idempotent and preserves all invariants.
//
//koalalint:hotpath
func (q *calQueue) head() *Event {
	for {
		if q.inYear > 0 {
			s := q.buckets[q.cur]
			if q.cursor < len(s) {
				return s[q.cursor]
			}
			if len(s) > 0 {
				// Fully consumed: reclaim the slice for reuse.
				q.buckets[q.cur] = s[:0]
			}
			q.cursor = 0
			q.cur++
			continue
		}
		if len(q.overflow) == 0 {
			return nil
		}
		q.advanceYear()
	}
}

// take removes the earliest event, which the caller has just read with
// head: nothing may change the queue between the two calls, so the scan
// already sits on it.
//
//koalalint:hotpath
func (q *calQueue) take() {
	s := q.buckets[q.cur]
	ev := s[q.cursor]
	s[q.cursor] = nil
	q.cursor++
	if q.cursor == len(s) {
		q.buckets[q.cur] = s[:0]
		q.cursor = 0
	}
	q.inYear--
	ev.bucket = bucketNone
	q.pops++
	q.lastPop = ev.time
	q.check("take")
}

// lastAt reports whether no queued event at ev's time sorts after the
// queued event ev. An in-year event sits in the bucket its time mapped to
// when it was pushed. If its time still maps there, every event pushed
// later at that time sits there too, sorted, so the answer is ev's
// successor in the bucket: none, or one at a later time. It answers false
// whenever it cannot tell cheaply: ev waits in the unsorted rung (or was
// forced into the year at an infinite time), or a grow has since moved
// the bucket ev's time maps to (a top-edge clamp).
//
//koalalint:hotpath
func (q *calQueue) lastAt(ev *Event) bool {
	b := int(ev.bucket)
	if b < 0 || !(ev.time < q.yearEnd) || b != q.bucketOf(ev.time) {
		return false
	}
	s := q.buckets[b]
	next := int(ev.pos) + 1
	return next == len(s) || s[next].time > ev.time
}

// remove deletes a queued event in place (eager cancel): an O(1)
// swap-delete from the unsorted rung, or a shift-delete preserving the
// sorted order of its bucket.
//
//koalalint:hotpath
func (q *calQueue) remove(ev *Event) {
	p := int(ev.pos)
	if ev.bucket == bucketOverflow {
		s := q.overflow
		last := len(s) - 1
		if p != last {
			s[p] = s[last]
			s[p].pos = int32(p)
		}
		s[last] = nil
		q.overflow = s[:last]
	} else {
		b := int(ev.bucket)
		s := q.buckets[b]
		for i := p; i < len(s)-1; i++ {
			s[i] = s[i+1]
			s[i].pos = int32(i)
		}
		s[len(s)-1] = nil
		q.buckets[b] = s[:len(s)-1]
		q.inYear--
	}
	ev.bucket = bucketNone
	q.check("remove")
}

// grow doubles the bucket count, extending the year in place: no
// in-year event moves, and the rung events that now fall inside the
// longer year migrate into the new buckets (keeping the invariant that
// every rung event is at or beyond yearEnd).
func (q *calQueue) grow() {
	n := 2 * len(q.buckets)
	if n > len(q.all) {
		//koalalint:alloc amortized: bucket storage doubles, carried across years
		grown := make([][]*Event, n)
		copy(grown, q.all)
		seedBuckets(grown[len(q.all):])
		q.all = grown
	}
	q.buckets = q.all[:n]
	q.yearEnd = q.yearStart + float64(n)*q.width
	q.migrate()
}

// migrate moves every rung event that falls inside the current year
// into its bucket, swap-filling the rung so each migrated event costs
// O(1). The rung is unsorted, so bucketInsert places each event at its
// sorted in-bucket position.
func (q *calQueue) migrate() {
	s := q.overflow
	for i := 0; i < len(s); {
		ev := s[i]
		if ev.time >= q.yearEnd {
			i++
			continue
		}
		q.bucketInsert(q.bucketOf(ev.time), ev)
		q.inYear++
		last := len(s) - 1
		if i != last {
			s[i] = s[last]
			s[i].pos = int32(i)
		}
		s[last] = nil
		s = s[:last]
	}
	q.overflow = s
}

// advanceYear re-anchors the (empty) year at the rung minimum, retunes
// the width to the event rate the previous year observed, and migrates
// the rung events that fall inside the new year. If the minimum sits at
// an infinite time the migration test (time < yearEnd) can never admit
// it against an infinite yearEnd, so the minimum event is force-moved
// into bucket 0 — ordering holds because everything else is no earlier.
func (q *calQueue) advanceYear() {
	// The current bucket can be left holding only its consumed-nil
	// prefix when the year's last event is canceled rather than popped
	// (remove truncates but only head and take reclaim). Reclaim it
	// before the cursor resets so the new year starts from clean buckets.
	if q.cur < len(q.buckets) {
		if s := q.buckets[q.cur]; len(s) > 0 {
			q.buckets[q.cur] = s[:0]
		}
	}
	min := q.overflow[0]
	for _, ev := range q.overflow[1:] {
		if eventBefore(ev, min) {
			min = ev
		}
	}
	q.retune()
	q.yearStart = min.time
	q.yearEnd = min.time + float64(len(q.buckets))*q.width
	q.cur, q.cursor = 0, 0
	q.pops = 0
	if math.IsInf(min.time, 1) {
		q.remove(min)
		q.bucketInsert(0, min)
		q.inYear++
		return
	}
	q.migrate()
	q.check("advanceYear")
}

// retune re-derives the bucket width from the event rate the previous
// year observed: width = occupancy × mean pop spacing, so the incoming
// dense flow spreads across buckets at the target occupancy. The
// sparse far tail never skews the estimate — it waits in the rung and
// only enters a year whose width the near-now traffic chose. Only
// called between years, when the buckets are empty, so the change
// moves no event.
func (q *calQueue) retune() {
	if q.pops < retuneMinPops || !(q.lastPop > q.yearStart) {
		return
	}
	w := occupancy * (q.lastPop - q.yearStart) / float64(q.pops)
	if w < 1e-9 {
		w = 1e-9
	}
	if w > 1e12 {
		w = 1e12
	}
	q.width = w
	q.invWidth = 1 / w
}
