package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// It models the periodic polling loops of the paper (the KOALA scheduler
// polling the information service, §V-B) without each component having to
// reimplement reschedule-on-fire logic.
//
// A running ticker costs no allocations: each fire is a handler event on
// the ticker itself, drawn from the Engine's pool.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      func()
	next    *Event
	stopped bool
}

// NewTicker starts a ticker firing fn every period seconds, with the first
// fire one period from now. period must be positive.
func NewTicker(e *Engine, period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.next = e.AfterOp(period, t, 0)
	return t
}

// OnEvent implements Handler: one period elapsed.
func (t *Ticker) OnEvent(int) {
	// The handle now refers to the event being fired; drop it before
	// running the callback so a Stop from inside fn cannot cancel a
	// recycled (and by then unrelated) event.
	t.next = nil
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.next = t.engine.AfterOp(t.period, t, 0)
	}
}

// Stop halts the ticker; the pending fire is canceled. Stop is idempotent
// and safe to call from inside the ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
		t.next = nil
	}
}

// Stopped reports whether Stop has been called.
func (t *Ticker) Stopped() bool { return t.stopped }
