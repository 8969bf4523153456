// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate on which the whole multicluster reproduction
// runs: clusters, local resource managers, the GRAM service, applications and
// the KOALA scheduler all advance by scheduling events on a shared Engine.
//
// Determinism is guaranteed by (a) firing everything in strict
// (time, insertion sequence) order so simultaneous events fire in scheduling
// order, and (b) the SplitMix64-based RNG in rng.go, seeded explicitly by
// every experiment. Events wait in a binary min-heap over (time, seq)
// (queue.go); each records its index there, so a cancel removes it at
// once. Periodic sources (Ticker) stay out of the queue: each keeps its
// next (time, seq) beside it, and every step fires whichever comes first
// of the earliest armed ticker and the queue head, by the same rule. A
// stream of events whose times are known in advance, such as a workload's
// submissions, takes its seqs at once through a Reservation and queues
// one event at a time, so the heap holds only what is already in motion:
// a few dozen events in a replication.
//
// A model that schedules several events of one kind for the same instant
// may fire them as one event through a Batch, as long as nothing queued
// or armed at that instant sorts after the batch's event when the next
// one joins: nothing can then fire between the members, so one event
// running them in order is indistinguishable from the events it stands
// for.
//
// The kernel's hot path is allocation-free: fired and canceled Event structs
// are recycled through a free list backed by a slab owned by the Engine
// (whose memory Teardown hands to the next engine). Every event targets a
// pre-bound Handler with an op code (AtOp, AfterOp, ImmediatelyOp), so no
// event carries a closure.
package sim

import (
	"fmt"
	"math"

	"repro/internal/slab"
)

// Handler is a pre-bound event target: scheduling one with AtOp/AfterOp
// fires h.OnEvent(op) without allocating a per-event closure. The op code
// lets a single object distinguish the different events it schedules.
type Handler interface {
	OnEvent(op int)
}

// Event is a scheduled handler call. It is returned by the scheduling
// methods so that callers may cancel it before it fires.
//
// Handles are valid only until the event fires or is canceled: the Engine
// recycles the struct for later events, so a retained stale handle may refer
// to an unrelated live event. Clear stored handles when they fire. No
// handle survives the engine's Teardown.
type Event struct {
	engine *Engine
	time   float64
	seq    uint64
	h      Handler
	op     int
	// pos is the event's index in the queue's heap, so a cancel removes
	// it in place; -1 while the event is not queued.
	pos      int32
	canceled bool
}

// Cancel prevents the event from firing and removes it from the queue
// immediately (so Pending stays exact). Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.pos >= 0 {
		eng := e.engine
		eng.q.remove(e)
		eng.recycle(e)
		eng.canceled++
	}
}

// eventPool holds the event chunks of torn-down engines.
var eventPool slab.Pool[Event]

// Engine is a single-threaded discrete-event simulation engine. The zero
// value is ready to use and starts at virtual time 0.
//
// Engine is not safe for concurrent use; the simulated world is entirely
// sequential, which is what makes runs reproducible.
type Engine struct {
	now   float64
	seq   uint64
	q     eventQueue
	fired uint64

	// nowSeq is the seq of the fire that set the clock to now: the event
	// or ticker fire now running, inside a handler. It is 0 before the
	// first fire and after RunUntil advances the clock to its horizon,
	// where no fire sits. (now, nowSeq) bounds where a Reservation may
	// queue.
	nowSeq uint64

	// tickers holds every ticker made on this engine, registered once by
	// NewTicker; tick is the earliest armed one (nil when none is armed)
	// and armed counts the armed ones, so Pending stays exact.
	tickers []*Ticker
	tick    *Ticker
	armed   int

	// reserved counts the seqs Reserve took that AtOp has not queued yet,
	// so Pending stays exact; reservedEnd is one past the last seq the
	// latest Reserve took.
	reserved    int
	reservedEnd uint64

	// Kernel accounting, kept unconditionally in plain counters (see
	// Scheduled, Fired, Canceled and PendingPeak): canceled counts Cancel
	// calls that removed a queued event and Stops that disarmed a ticker;
	// pendingPeak is the high-water Pending count.
	canceled    uint64
	pendingPeak int

	// free holds fired/canceled events available for reuse; events is
	// the slab the free list refills from.
	free   []*Event
	events slab.Slab[Event]
}

// New returns an Engine starting at virtual time 0 whose events come
// from a shared pool (see Teardown). The zero Engine allocates its
// events fresh.
func New() *Engine { return &Engine{events: slab.New(&eventPool)} }

// Teardown hands the memory of every event the engine made to the pool
// for later engines. The engine and every event handle it returned must
// not be used afterwards. An engine that is never torn down leaves its
// events to the garbage collector.
func (e *Engine) Teardown() {
	e.events.Release()
	// The free list and the queue point into the released memory: drop
	// them, so a stray use of this engine cannot reach another engine's
	// events. The tickers go with them.
	e.free = nil
	e.q = eventQueue{}
	e.tickers, e.tick, e.armed = nil, nil, 0
	e.reserved = 0
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Scheduled returns the number of events scheduled, ticker fires armed
// and seqs reserved so far (a Batch's event counts once, however many
// members it carries).
func (e *Engine) Scheduled() uint64 { return e.seq }

// Fired returns the number of events and ticker fires executed so far
// (useful in tests and benchmarks as a proxy for simulation work).
func (e *Engine) Fired() uint64 { return e.fired }

// Canceled returns the number of queued events canceled and armed
// tickers stopped so far. Scheduled = Fired + Canceled + Pending holds at
// every point between events.
func (e *Engine) Canceled() uint64 { return e.canceled }

// PendingPeak returns the highest Pending count the engine has reached.
func (e *Engine) PendingPeak() int { return e.pendingPeak }

// Pending returns the number of fires still due: queued events, armed
// tickers and reserved seqs not queued yet. Canceled events are removed
// from the queue eagerly and a stopped ticker is disarmed at once, so the
// count is exact. A Batch's event counts once, however many members it
// carries.
func (e *Engine) Pending() int { return e.q.pending() + e.armed + e.reserved }

// notePending folds the current pending count into the high-water mark.
//
//koalalint:hotpath
func (e *Engine) notePending() {
	if n := e.Pending(); n > e.pendingPeak {
		e.pendingPeak = n
	}
}

// alloc hands out an Event from the free list, refilling from the slab
// when it runs dry.
//
//koalalint:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	ev := e.events.Alloc()
	ev.engine = e
	return ev
}

// recycle returns a fired or canceled event to the free list, dropping its
// handler so the target can be collected.
//
//koalalint:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.h = nil
	//koalalint:alloc amortized: the free list retains its capacity across events
	e.free = append(e.free, ev)
}

// queue puts a recycled-or-fresh event for h.OnEvent(op) at (t, seq)
// into the queue.
//
//koalalint:hotpath
func (e *Engine) queue(t float64, seq uint64, h Handler, op int) *Event {
	if h == nil {
		panic("sim: AtOp with nil handler")
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	ev := e.alloc()
	ev.time = t
	ev.seq = seq
	ev.h = h
	ev.op = op
	ev.canceled = false
	e.q.push(ev)
	return ev
}

// AtOp schedules h.OnEvent(op) at absolute virtual time t. Scheduling in
// the past panics: it would silently reorder causality, which is always a
// bug in the calling model.
func (e *Engine) AtOp(t float64, h Handler, op int) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: t=%g now=%g", t, e.now))
	}
	ev := e.queue(t, e.seq, h, op)
	e.seq++
	e.notePending()
	return ev
}

// AfterOp schedules h.OnEvent(op) delay seconds from now. Negative delays
// panic.
func (e *Engine) AfterOp(delay float64, h Handler, op int) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	return e.AtOp(e.now+delay, h, op)
}

// ImmediatelyOp schedules h.OnEvent(op) at the current time, after all
// events already scheduled for this instant.
func (e *Engine) ImmediatelyOp(h Handler, op int) *Event { return e.AtOp(e.now, h, op) }

// lastAt reports whether the queued event ev is the last-sorting entry at
// its time: no queued event at that time sorts after it, no ticker armed
// for that time has a higher seq, and no reserved seq above ev's may
// still be queued (its time is not known until it is).
//
//koalalint:hotpath
func (e *Engine) lastAt(ev *Event) bool {
	if e.reserved > 0 && ev.seq < e.reservedEnd {
		return false
	}
	for _, tk := range e.tickers {
		if tk.armed && tk.at == ev.time && tk.seq > ev.seq {
			return false
		}
	}
	return e.q.lastAt(ev)
}

// step fires the earliest due event or ticker if it is due no later than
// horizon. It reports false when nothing is due by then.
//
//koalalint:hotpath
func (e *Engine) step(horizon float64) bool {
	ev := e.q.head()
	if tk := e.tick; tk != nil && (ev == nil || tk.at < ev.time || tk.at == ev.time && tk.seq < ev.seq) {
		if tk.at > horizon {
			return false
		}
		e.fireTicker(tk)
		return true
	}
	if ev == nil || ev.time > horizon {
		return false
	}
	e.q.take()
	if ev.time < e.now {
		panic("sim: event queue returned an event from the past")
	}
	e.now, e.nowSeq = ev.time, ev.seq
	e.fired++
	ev.h.OnEvent(ev.op)
	// Recycle only after the handler returns so a handle canceled
	// mid-fire never aliases a live event.
	e.recycle(ev)
	return true
}

// Run executes events until nothing is due and returns the final virtual
// time. Unlike RunUntil it leaves the clock at the last fire.
//
//koalalint:hotpath
func (e *Engine) Run() float64 {
	for e.step(math.Inf(1)) {
	}
	return e.now
}

// RunUntil executes events and ticker fires with time ≤ horizon, then
// advances the clock to horizon (if the simulation has not already passed
// it) and returns. Everything due beyond horizon stays pending.
//
//koalalint:hotpath
func (e *Engine) RunUntil(horizon float64) float64 {
	for e.step(horizon) {
	}
	if e.now < horizon {
		e.now, e.nowSeq = horizon, 0
	}
	return e.now
}
