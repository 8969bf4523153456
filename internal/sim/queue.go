package sim

// eventQueue is the engine's event queue: a binary min-heap over the
// (time, seq) total order. seq is unique, so the order is total and the
// pop sequence is fully determined by the events queued, whatever the
// heap's layout. Every event records its index in the heap, so a cancel
// removes it in place and Pending stays exact.
//
// The heap is small at this simulator's operating point: with a
// workload's submissions queued one at a time (Reservation), it holds a
// few dozen events. The zero value is an empty queue.
type eventQueue struct {
	h []*Event
}

// eventBefore is the queue's total order: time, FIFO tie-break on
// scheduling sequence.
func eventBefore(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// pending returns the number of queued events.
func (q *eventQueue) pending() int { return len(q.h) }

// push inserts ev (time and seq already set) into the queue.
//
//koalalint:hotpath
func (q *eventQueue) push(ev *Event) {
	//koalalint:alloc amortized: the heap retains its capacity across events
	q.h = append(q.h, ev)
	q.up(len(q.h)-1, ev)
}

// head returns the earliest queued event without removing it, or nil
// when the queue is empty.
//
//koalalint:hotpath
func (q *eventQueue) head() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// take removes the earliest event.
//
//koalalint:hotpath
func (q *eventQueue) take() { q.removeAt(0) }

// remove deletes the queued event ev in place (eager cancel).
//
//koalalint:hotpath
func (q *eventQueue) remove(ev *Event) { q.removeAt(int(ev.pos)) }

// removeAt deletes the event at index i. The hole it leaves sinks to a
// leaf along the earlier children, one comparison per level, and the
// last event refills it from there: it rises only as far as it must,
// which from a leaf is rarely far, since later events sit low.
//
//koalalint:hotpath
func (q *eventQueue) removeAt(i int) {
	h := q.h
	n := len(h) - 1
	h[i].pos = -1
	last := h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if i == n {
		return
	}
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventBefore(h[r], h[c]) {
			c = r
		}
		h[i] = h[c]
		h[i].pos = int32(i)
		i = c
	}
	q.up(i, last)
}

// up places ev, entering at the hole i, moving each parent that sorts
// after it down a level.
//
//koalalint:hotpath
func (q *eventQueue) up(i int, ev *Event) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = ev
	ev.pos = int32(i)
}

// lastAt reports whether no queued event at ev's time sorts after the
// queued event ev.
//
//koalalint:hotpath
func (q *eventQueue) lastAt(ev *Event) bool { return !q.laterAt(0, ev) }

// laterAt reports whether the subtree rooted at index i holds an event
// due at ev's time that sorts after ev. Nothing in a subtree sorts before
// its root, so the search descends only through events due no later than
// ev: the few that fire before it, and ev itself.
//
//koalalint:hotpath
func (q *eventQueue) laterAt(i int, ev *Event) bool {
	if i >= len(q.h) {
		return false
	}
	x := q.h[i]
	if x.time > ev.time {
		return false
	}
	if x.time == ev.time && x.seq > ev.seq {
		return true
	}
	return q.laterAt(2*i+1, ev) || q.laterAt(2*i+2, ev)
}
