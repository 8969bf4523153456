package sim

import "fmt"

// Reservation holds seqs taken in advance for a stream of events whose
// times are known when the stream starts and never decrease, such as a
// workload's submissions. The stream's events need not wait in the queue
// together: each one queues the next when it fires, and every event still
// fires with the seq it would have had if the whole stream had been
// scheduled at Reserve.
//
// A reserved seq counts as scheduled when Reserve takes it and as pending
// until AtOp queues it, so the engine's counters read as if the whole
// stream had been queued at once. While a seq above a batch's event is
// reserved but not queued, the batch takes no late member: the reserved
// event might be due at the batch's time.
type Reservation struct {
	engine *Engine
	// next and end bound the seqs not queued yet: [next, end).
	next, end uint64
}

// Reserve takes the next n seqs for events that the returned
// Reservation's AtOp queues later, one at a time, in seq order.
func (e *Engine) Reserve(n int) *Reservation {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative reservation %d", n))
	}
	r := &Reservation{engine: e, next: e.seq, end: e.seq + uint64(n)}
	e.seq = r.end
	e.reserved += n
	e.reservedEnd = r.end
	e.notePending()
	return r
}

// AtOp queues h.OnEvent(op) at absolute virtual time t with the next
// reserved seq. It panics when the reservation is used up, and when
// (t, seq) sorts before the event now firing, which is the reservation's
// form of scheduling in the past. Between run loops the bound is the
// clock and the last fire at it.
func (r *Reservation) AtOp(t float64, h Handler, op int) *Event {
	e := r.engine
	if r.next == r.end {
		panic("sim: reservation used up")
	}
	if t < e.now || t == e.now && r.next < e.nowSeq {
		panic(fmt.Sprintf("sim: reserved event (t=%g seq=%d) sorts before the event now firing (t=%g seq=%d)",
			t, r.next, e.now, e.nowSeq))
	}
	ev := e.queue(t, r.next, h, op)
	r.next++
	e.reserved--
	return ev
}
