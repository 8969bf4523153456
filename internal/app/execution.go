package app

import (
	"fmt"

	"repro/internal/sim"
)

// ReconfigCosts model the runtime cost of malleability operations measured
// in [2]: growing pauses the application briefly while new processes are
// recruited and data is redistributed; shrinking waits for the SPMD code to
// reach an AFPAC safe point before processors can be handed back. GRAM
// interaction latencies are *not* included here — they overlap with
// execution (§V-A) and are modeled by the gram package.
type ReconfigCosts struct {
	// RecruitPause suspends execution when newly held processors are turned
	// into application processes (grow).
	RecruitPause float64
	// SafePointDelay is the mean delay until the application reaches a safe
	// point at which it can release processors (shrink).
	SafePointDelay float64
	// RedistributePause suspends execution after a shrink while data is
	// redistributed over the remaining processes.
	RedistributePause float64
}

// DefaultReconfigCosts reflect the two applications of §VI-A: recruiting and
// redistributing pause the application for a couple of seconds, and reaching
// an AFPAC safe point (between SPMD iterations) takes a few seconds.
func DefaultReconfigCosts() ReconfigCosts {
	return ReconfigCosts{RecruitPause: 2, SafePointDelay: 5, RedistributePause: 2}
}

// Execution integrates the progress of one running application over its
// allocation history. Progress is a fraction in [0,1]; at a constant p the
// fraction grows at rate 1/T(p), so a constant-size run finishes after
// exactly T(p) seconds. Reconfiguration pauses contribute zero progress.
type Execution struct {
	engine  *sim.Engine
	profile *Profile

	procs      int
	progress   float64
	lastUpdate float64
	paused     int // nesting depth of pauses
	finishEv   *sim.Event
	done       bool
	onFinish   func()

	// allocation history for metrics: (time, procs) steps. The inline
	// buffers cover rigid jobs and lightly-adapted malleable ones without
	// heap growth.
	histTimes    []float64
	histProcs    []int
	histTimesBuf [8]float64
	histProcsBuf [8]int
}

// Start starts a zero Execution of the given profile at procs processors,
// in place, so owners can embed the execution by value. onFinish fires
// exactly when accumulated progress reaches 1.
func (x *Execution) Start(engine *sim.Engine, profile *Profile, procs int, onFinish func()) {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	if procs < profile.Min || procs > profile.Max {
		panic(fmt.Sprintf("app: %s started with %d procs outside [%d,%d]",
			profile.Name, procs, profile.Min, profile.Max))
	}
	x.engine = engine
	x.profile = profile
	x.procs = procs
	x.onFinish = onFinish
	x.lastUpdate = engine.Now()
	x.histTimes = x.histTimesBuf[:0]
	x.histProcs = x.histProcsBuf[:0]
	x.record(procs)
	x.reschedule()
}

// Event op codes for the Execution's sim.Handler implementation: the
// finish and auto-resume events fire on the execution itself, so the
// frequent reschedule path allocates no bound-method closures.
const (
	opFinish = iota
	opResume
)

// OnEvent implements sim.Handler.
func (x *Execution) OnEvent(op int) {
	switch op {
	case opFinish:
		x.finish()
	case opResume:
		x.Resume()
	}
}

// Procs returns the current effective processor count.
func (x *Execution) Procs() int { return x.procs }

// Done reports whether the application has finished.
func (x *Execution) Done() bool { return x.done }

// Progress returns the completed fraction in [0,1] as of the current
// virtual time.
func (x *Execution) Progress() float64 {
	x.integrate()
	return x.progress
}

// History returns the allocation step history as parallel slices of times
// and processor counts (a 0 count marks pauses). The slices must not be
// modified.
func (x *Execution) History() ([]float64, []int) { return x.histTimes, x.histProcs }

func (x *Execution) record(p int) {
	now := x.engine.Now()
	if n := len(x.histTimes); n > 0 && x.histTimes[n-1] == now {
		x.histProcs[n-1] = p
		return
	}
	x.histTimes = append(x.histTimes, now)
	x.histProcs = append(x.histProcs, p)
}

// rate returns the current progress rate (fractions per second).
func (x *Execution) rate() float64 {
	if x.paused > 0 {
		return 0
	}
	return 1 / x.profile.Model.Time(x.procs)
}

// integrate accrues progress since the last update.
func (x *Execution) integrate() {
	if x.done {
		return
	}
	now := x.engine.Now()
	x.progress += (now - x.lastUpdate) * x.rate()
	if x.progress > 1 {
		x.progress = 1
	}
	x.lastUpdate = now
}

// reschedule recomputes the finish event from the current progress and rate.
func (x *Execution) reschedule() {
	if x.done {
		return
	}
	if x.finishEv != nil {
		x.finishEv.Cancel()
		x.finishEv = nil
	}
	r := x.rate()
	if r <= 0 {
		return // paused: finish is rescheduled on resume
	}
	remaining := (1 - x.progress) / r
	x.finishEv = x.engine.AfterOp(remaining, x, opFinish)
}

func (x *Execution) finish() {
	// The handle refers to the event firing right now; drop it so no later
	// path can cancel a recycled event.
	x.finishEv = nil
	x.integrate()
	// Guard against float drift: the event fires exactly at the computed
	// completion instant, so progress must be 1 within epsilon.
	if x.progress < 1-1e-9 {
		panic(fmt.Sprintf("app: %s finish event fired at progress %g", x.profile.Name, x.progress))
	}
	x.progress = 1
	x.done = true
	x.record(0)
	if x.onFinish != nil {
		x.onFinish()
	}
}

// SetProcs changes the effective processor count, integrating progress made
// at the old size. It is the rate-switch point: the MRunner calls it only
// after new processors are actually recruited (grow) or right when
// processors are handed back (shrink).
func (x *Execution) SetProcs(p int) {
	if x.done {
		panic(fmt.Sprintf("app: SetProcs on finished %s", x.profile.Name))
	}
	if p < x.profile.Min || p > x.profile.Max {
		panic(fmt.Sprintf("app: %s resized to %d outside [%d,%d]",
			x.profile.Name, p, x.profile.Min, x.profile.Max))
	}
	x.integrate()
	x.procs = p
	x.record(p)
	x.reschedule()
}

// Pause suspends progress (nested calls require matching Resumes).
func (x *Execution) Pause() {
	if x.done {
		return
	}
	x.integrate()
	x.paused++
	if x.paused == 1 {
		x.record(0)
	}
	x.reschedule()
}

// Resume restarts progress after a Pause.
func (x *Execution) Resume() {
	if x.done {
		return
	}
	if x.paused == 0 {
		panic(fmt.Sprintf("app: Resume without Pause on %s", x.profile.Name))
	}
	x.integrate()
	x.paused--
	if x.paused == 0 {
		x.record(x.procs)
	}
	x.reschedule()
}

// PauseFor suspends progress for d seconds, then resumes automatically —
// the shape of the recruit and redistribute pauses.
func (x *Execution) PauseFor(d float64) {
	if d <= 0 || x.done {
		return
	}
	x.Pause()
	x.engine.AfterOp(d, x, opResume)
}
