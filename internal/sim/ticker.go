package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It models the periodic polling loops of the paper (the KOALA scheduler
// polling the information service, §V-B) without each component having to
// reimplement reschedule-on-fire logic.
//
// A ticker is not a queued event. It keeps its next fire time beside the
// engine's queue, stamped with a seq taken from the same counter the
// queue's events draw from, and the engine fires whichever comes first of
// the earliest armed ticker and the queue head by the (time, seq) rule. So
// a fire lands exactly where an event scheduled at the arming would have,
// and every other event keeps its relative order. Arming and firing touch
// no queue and allocate nothing.
type Ticker struct {
	engine *Engine
	period float64
	fn     func()
	// at and seq place the next fire in the engine's (time, seq) order;
	// they are meaningful while armed.
	at      float64
	seq     uint64
	armed   bool
	stopped bool
}

// NewTicker starts a ticker firing fn every period seconds, with the first
// fire one period from now. period must be positive.
func NewTicker(e *Engine, period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	e.tickers = append(e.tickers, t)
	e.arm(t)
	return t
}

// Stop halts the ticker; a pending fire is canceled and counted as a
// cancel, as a canceled event would be. Stop is idempotent and safe to
// call from inside the ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.armed {
		t.engine.disarm(t)
		t.engine.canceled++
	}
}

// arm stamps t's next fire one period from now with the next seq, which
// it consumes exactly as scheduling an event would.
//
//koalalint:hotpath
func (e *Engine) arm(t *Ticker) {
	t.at = e.now + t.period
	t.seq = e.seq
	e.seq++
	t.armed = true
	e.armed++
	// On a time tie the cached ticker wins: it was armed earlier, so its
	// seq is lower.
	if e.tick == nil || t.at < e.tick.at {
		e.tick = t
	}
	e.notePending()
}

// disarm takes t out of the running and, if it was the earliest armed
// ticker, finds the next one.
//
//koalalint:hotpath
func (e *Engine) disarm(t *Ticker) {
	t.armed = false
	e.armed--
	if e.tick != t {
		return
	}
	e.tick = nil
	for _, o := range e.tickers {
		if o.armed && (e.tick == nil || o.at < e.tick.at || o.at == e.tick.at && o.seq < e.tick.seq) {
			e.tick = o
		}
	}
}

// fireTicker fires the earliest armed ticker: it runs the callback and
// then, unless the callback stopped the ticker, re-arms it, so the next
// fire's seq follows every event the callback scheduled.
//
//koalalint:hotpath
func (e *Engine) fireTicker(t *Ticker) {
	e.disarm(t)
	e.now, e.nowSeq = t.at, t.seq
	e.fired++
	t.fn()
	if !t.stopped {
		e.arm(t)
	}
}
