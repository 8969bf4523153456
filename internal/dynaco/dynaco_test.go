package dynaco

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// handlerFunc adapts a closure to sim.Handler.
type handlerFunc func()

func (f handlerFunc) OnEvent(int) { f() }

// fakeHandler records actions, completes them after fixed delays, and
// records every finished adaptation.
type fakeHandler struct {
	engine       *sim.Engine
	fw           *Framework
	acquireDelay float64
	actions      []string
	heldOverride func(n int) int // optional: deliver fewer than asked
	done         []string
}

func (h *fakeHandler) Acquire(n int) {
	h.actions = append(h.actions, fmt.Sprintf("acquire %d", n))
	held := n
	if h.heldOverride != nil {
		held = h.heldOverride(n)
	}
	h.engine.AfterOp(h.acquireDelay, handlerFunc(func() { h.fw.AcquireDone(held) }), 0)
}

func (h *fakeHandler) Recruit(n int) {
	h.actions = append(h.actions, fmt.Sprintf("recruit %d", n))
	h.engine.AfterOp(1, handlerFunc(h.fw.StepDone), 0)
}

func (h *fakeHandler) Release(n int) {
	h.actions = append(h.actions, fmt.Sprintf("release %d", n))
	h.engine.AfterOp(2, handlerFunc(h.fw.StepDone), 0)
}

func (h *fakeHandler) Done(ev Event, accepted int) {
	h.done = append(h.done, fmt.Sprintf("%d/%d: %d", ev.Kind, ev.Amount, accepted))
}

func setup() (*sim.Engine, *fakeHandler, *Framework) {
	e := sim.New()
	f := new(Framework)
	h := &fakeHandler{engine: e, fw: f, acquireDelay: 5}
	f.Init(h)
	return e, h, f
}

func check(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s = %q, want %q", what, got, want)
	}
}

func TestGrowRunsAcquireThenRecruit(t *testing.T) {
	e, h, f := setup()
	f.Notify(Event{Kind: GrowRequest, Amount: 3})
	e.Run()
	check(t, "actions", h.actions, "acquire 3", "recruit 3")
	check(t, "done", h.done, "0/3: 3")
}

func TestShrinkRunsRelease(t *testing.T) {
	e, h, f := setup()
	f.Notify(Event{Kind: ShrinkRequest, Amount: 4})
	e.Run()
	check(t, "actions", h.actions, "release 4")
	check(t, "done", h.done, "1/4: 4")
}

func TestAdaptationsSerialize(t *testing.T) {
	e, h, f := setup()
	f.Notify(Event{Kind: GrowRequest, Amount: 2})
	f.Notify(Event{Kind: ShrinkRequest, Amount: 1})
	f.Notify(Event{Kind: GrowRequest, Amount: 1})
	// Only the first adaptation has started; the others wait in order.
	check(t, "actions before running", h.actions, "acquire 2")
	e.Run()
	check(t, "actions", h.actions, "acquire 2", "recruit 2", "release 1", "acquire 1", "recruit 1")
	check(t, "done", h.done, "0/2: 2", "1/1: 1", "0/1: 1")
	// Idle again: a later event starts at once.
	f.Notify(Event{Kind: ShrinkRequest, Amount: 3})
	check(t, "actions after idle", h.actions[len(h.actions)-1:], "release 3")
}

func TestPartialAcquisitionShrinksPlan(t *testing.T) {
	e, h, f := setup()
	h.heldOverride = func(n int) int { return 1 } // environment yields just 1
	f.Notify(Event{Kind: GrowRequest, Amount: 4})
	e.Run()
	check(t, "actions", h.actions, "acquire 4", "recruit 1")
	check(t, "done", h.done, "0/4: 1")
}

func TestZeroAcquisitionAbortsPlan(t *testing.T) {
	e, h, f := setup()
	h.heldOverride = func(n int) int { return 0 }
	f.Notify(Event{Kind: GrowRequest, Amount: 4})
	f.Notify(Event{Kind: ShrinkRequest, Amount: 2})
	e.Run()
	// The grow ends without recruiting, and the queued shrink still runs.
	check(t, "actions", h.actions, "acquire 4", "release 2")
	check(t, "done", h.done, "0/4: 0", "1/2: 2")
}

func TestNilComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	new(Framework).Init(nil)
}
