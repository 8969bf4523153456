// Package dynaco reproduces the DYNACO framework for dynamic adaptability
// ([2], §IV-B): a control loop of four components — observe, decide, plan,
// execute — specialised per application. In this reproduction DYNACO runs
// inside the Malleable Runner on a per-application basis (§V-A), and the
// decide step lives in the runner: the runner's answer to the scheduler's
// grow or shrink message is the application's decision (e.g. FT's
// power-of-two rule), given synchronously as the protocol reply (§V-C).
// The runner then delivers the accepted amount as an Event; this package
// plans it (a grow acquires processors, then recruits what it obtained; a
// shrink releases) and executes the plan — AFPAC for SPMD applications
// [26] — consistently with the running application, one adaptation at a
// time.
package dynaco

// EventKind classifies monitor events.
type EventKind int

const (
	// GrowRequest is a scheduler offer of additional processors (§II-C).
	GrowRequest EventKind = iota
	// ShrinkRequest is a (mandatory) scheduler reclaim of processors.
	ShrinkRequest
)

// Event is one decided adaptation delivered to the framework.
type Event struct {
	Kind   EventKind
	Amount int // processors accepted (grow) or agreed to release (shrink)
}

// Handler executes the actions of a plan on behalf of the framework. The
// Malleable Runner implements it against GRAM and the application process;
// tests implement it directly. Acquire resumes the framework exactly once
// through AcquireDone with how many processors were actually obtained (the
// environment may deliver fewer than asked); Recruit and Release resume it
// through StepDone. Done reports every executed event with the processors
// actually adopted or released.
type Handler interface {
	Acquire(n int)
	Recruit(n int)
	Release(n int)
	Done(ev Event, accepted int)
}

// Framework is one per-application DYNACO instance. Adaptations are
// serialised: while one executes, further events queue — the AFPAC
// consistency guarantee that an SPMD application adapts at one safe point at
// a time.
type Framework struct {
	handler Handler

	busy bool
	// pending is a head-indexed FIFO of queued events (re-slicing from the
	// front would force an append reallocation per Notify under churn);
	// pendingBuf is its inline backing for the common shallow queues.
	pending     []Event
	pendingHead int
	pendingBuf  [4]Event

	// cur is the executing adaptation and held what its acquisition
	// obtained; the handler resumes the plan through AcquireDone/StepDone,
	// so the §V-C hot path allocates neither plans nor per-action closures.
	cur  Event
	held int
}

// Init readies a zero Framework, embedded by value in its owner, to
// execute through h.
func (f *Framework) Init(h Handler) {
	if h == nil {
		panic("dynaco: nil handler")
	}
	f.handler = h
	f.pending = f.pendingBuf[:0]
}

// Notify is the observe component's entry point: the monitor delivers a
// decided event, and the loop plans and executes it once every earlier
// event has been.
func (f *Framework) Notify(ev Event) {
	f.pending = append(f.pending, ev)
	f.drain()
}

func (f *Framework) drain() {
	if f.busy || f.pendingHead == len(f.pending) {
		return
	}
	ev := f.pending[f.pendingHead]
	f.pendingHead++
	if f.pendingHead == len(f.pending) {
		f.pending = f.pending[:0]
		f.pendingHead = 0
	}
	f.cur = ev
	f.held = ev.Amount
	f.busy = true
	if ev.Kind == GrowRequest {
		f.handler.Acquire(ev.Amount)
	} else {
		f.handler.Release(ev.Amount)
	}
}

// AcquireDone resumes a grow after the handler completed its acquisition
// with held of the accepted processors: it recruits what the environment
// actually delivered, and a grow that obtained nothing ends.
func (f *Framework) AcquireDone(held int) {
	f.held = held
	if held == 0 {
		f.end()
		return
	}
	f.handler.Recruit(held)
}

// StepDone ends the adaptation after the handler completed a recruit or a
// release.
func (f *Framework) StepDone() { f.end() }

func (f *Framework) end() {
	f.busy = false
	f.handler.Done(f.cur, f.held)
	f.drain()
}
