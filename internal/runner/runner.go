// Package runner reproduces KOALA's runners framework (§IV-A) and the
// Malleable Runner of §V-A. Runners are the auxiliary tools that interface
// applications of different types to the centralised scheduler: they submit
// the actual GRAM jobs, monitor progress, and report the application's
// start and finish through one Lifecycle. The MRunner also answers the
// scheduler's grow and shrink messages: its reply is the application's
// decision (the DYNACO decide step, §V-C), and the complete per-application
// DYNACO instance it embeds plans and executes the accepted change as GRAM
// submissions and releases.
package runner

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/dynaco"
	"repro/internal/gram"
	"repro/internal/sim"
	"repro/internal/slab"
)

// Lifecycle receives a runner's start and finish notifications. The
// scheduler's *Job implements it, so claiming a placement allocates no
// per-job callback closures.
type Lifecycle interface {
	// JobStarted fires when the application begins executing.
	JobStarted()
	// JobFinished fires when the application completed and all of its
	// resources have been handed back to GRAM.
	JobFinished()
}

// MRunnerConfig carries the MRunner's tunables.
type MRunnerConfig struct {
	// Costs are the application-side reconfiguration costs.
	Costs app.ReconfigCosts
	// AcquireTimeout bounds how long a grow waits for stubs to become
	// active before proceeding with what is held (pending stubs are
	// voluntarily abandoned). Zero disables the timeout.
	AcquireTimeout float64
}

// DefaultMRunnerConfig returns sensible defaults. The acquisition timeout is
// generous because acquiring many processors through GRAM's gatekeeper is
// slow by design (one size-1 job per processor, §V-A).
func DefaultMRunnerConfig() MRunnerConfig {
	return MRunnerConfig{Costs: app.DefaultReconfigCosts(), AcquireTimeout: 300}
}

// MRunner is the Malleable Runner: it manages a malleable application as a
// collection of GRAM jobs of size 1 (§V-A). Growth submits new size-1 stub
// jobs, overlapping with execution; once all stubs are held they are
// recruited into application processes. Shrinking first reclaims processors
// from the application (safe point), then releases the corresponding GRAM
// jobs.
type MRunner struct {
	engine  *sim.Engine
	svc     *gram.Service
	profile *app.Profile
	cfg     MRunnerConfig
	lc      Lifecycle

	initial int
	stubs   []*gram.Job
	// exec points at execVal once the application starts: the execution
	// is embedded by value, so it lives wherever the runner does.
	exec    *app.Execution
	execVal app.Execution
	// fw is the per-job DYNACO instance, embedded by value so claiming a
	// malleable job heap-allocates one object fewer.
	fw dynaco.Framework

	// planned is the processor count after all queued adaptations complete;
	// the decide step of the protocol (§V-C: "get accepted number of
	// processors from Job") is evaluated against it so that back-to-back
	// offers within one management round compose correctly.
	planned int

	// reserved, once ReserveInto set it, is the count the runner keeps its
	// share of in-flight growth in; share is what it has added there.
	reserved *int
	share    int

	started  bool
	running  bool
	finished bool

	// One in-flight release staged by mrunnerHandler.Release while its
	// safe-point delay elapses (DYNACO serializes adaptations, so one slot
	// is enough).
	relN int

	// acq is the single reusable acquisition slot: DYNACO executes one
	// adaptation at a time and no grow can start before the initial batch
	// completes, so at most one acquisition is ever in flight — growing
	// allocates no per-acquisition state.
	acq acquisition
}

// Slabs is the memory a scheduler's malleable runners are built in: each
// MRunner, with its application execution embedded, and the backing of
// its stub lists. NewSlabs draws it from pools shared by all schedulers;
// the zero value allocates fresh memory and never hands it back.
type Slabs struct {
	runners slab.Slab[MRunner]
	stubs   slab.Slab[*gram.Job]
}

var (
	runnerPool slab.Pool[MRunner]
	stubPool   slab.Pool[*gram.Job]
)

// NewSlabs returns runner memory backed by the shared pools.
func NewSlabs() Slabs {
	return Slabs{runners: slab.New(&runnerPool), stubs: slab.New(&stubPool)}
}

// Release hands the memory of every runner built in m to the pools. No
// runner built in m, nor its execution, may be used afterwards.
func (m *Slabs) Release() {
	m.runners.Release()
	m.stubs.Release()
}

// NewMRunner builds an MRunner in m for one malleable application
// instance to be executed at svc's site, starting at initial processors;
// lc receives its start and finish. The runner stays valid until m is
// released.
func (m *Slabs) NewMRunner(engine *sim.Engine, svc *gram.Service, profile *app.Profile, initial int, cfg MRunnerConfig, lc Lifecycle) (*MRunner, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if profile.Class != app.Malleable {
		return nil, fmt.Errorf("runner: MRunner requires a malleable profile, got %v", profile.Class)
	}
	if initial < profile.Min || initial > profile.Max {
		return nil, fmt.Errorf("runner: initial size %d outside [%d,%d]", initial, profile.Min, profile.Max)
	}
	r := m.runners.Alloc()
	r.engine = engine
	r.svc = svc
	r.profile = profile
	r.cfg = cfg
	r.lc = lc
	r.initial = initial
	r.planned = initial
	r.acq.r = r
	// One backing run serves both stub lists: held stubs in the front
	// half, the in-flight batch in the back half. Each half is sized for
	// the profile's maximum, so grow recruitment never reallocates.
	buf := m.stubs.Run(2 * profile.Max)
	r.stubs = buf[:0:profile.Max]
	r.acq.newStubs = buf[profile.Max:profile.Max]
	// The complete DYNACO instance embedded in the MRunner (§V-A). The
	// decide step runs synchronously in RequestGrow/RequestShrink (it is
	// the protocol reply to the scheduler); the framework plans and
	// executes the decided events through the runner's handler, so
	// assembling the instance allocates no closures.
	r.fw.Init((*mrunnerHandler)(r))
	return r, nil
}

// Nodes returns the processors currently held on behalf of the
// application, stubs not yet recruited included.
func (r *MRunner) Nodes() int { return len(r.stubs) }

// Execution exposes the application execution (nil before start).
func (r *MRunner) Execution() *app.Execution { return r.exec }

// Start submits the initial collection of size-1 GRAM stub jobs; execution
// begins when all are active. The batch runs through the shared
// acquisition slot (without a timeout: the initial submission claims
// processors the scheduler already granted).
func (r *MRunner) Start() error {
	if r.started {
		return fmt.Errorf("runner: %s started twice", r.profile.Name)
	}
	r.started = true
	if err := r.acquire(r.initial, true, 0); err != nil {
		return fmt.Errorf("runner: initial submission failed: %w", err)
	}
	return nil
}

func (r *MRunner) beginExecution() {
	r.running = true
	r.exec = &r.execVal
	r.exec.Start(r.engine, r.profile, r.initial, r.onAppFinished)
	r.lc.JobStarted()
}

func (r *MRunner) onAppFinished() {
	r.running = false
	r.finished = true
	for _, s := range r.stubs {
		if s.State() != gram.Released {
			r.svc.Release(s)
		}
	}
	r.stubs = nil
	r.noteGrowth()
	r.lc.JobFinished()
}

// PlannedProcs returns the processor count the application will have once
// all in-flight adaptations complete.
func (r *MRunner) PlannedProcs() int { return r.planned }

// ReserveInto makes the runner keep its in-flight growth, planned minus
// held processors (at least 0), added into *count while the application
// runs, updated wherever either changes. The scheduler passes its site's
// reservation count when the job starts, so growth granted but not yet
// held is never handed out twice; the share leaves the count before
// JobFinished.
func (r *MRunner) ReserveInto(count *int) {
	r.reserved = count
	r.noteGrowth()
}

// noteGrowth brings the runner's share of the ReserveInto count up to date.
func (r *MRunner) noteGrowth() {
	share := 0
	if r.running {
		share = max(r.planned-len(r.stubs), 0)
	}
	if r.reserved != nil {
		*r.reserved += share - r.share
	}
	r.share = share
}

// RequestGrow delivers a scheduler grow offer to the application. The
// returned value is the application's immediate protocol reply — how many of
// the offered processors it accepts (the DYNACO decide step, e.g. FT's
// power-of-two rule). The adaptation itself (stub submission, recruitment)
// proceeds asynchronously.
func (r *MRunner) RequestGrow(offer int) int {
	if !r.running {
		return 0
	}
	accepted := r.profile.AcceptGrow(r.planned, offer)
	if accepted <= 0 {
		return 0
	}
	r.planned += accepted
	r.noteGrowth()
	r.fw.Notify(dynaco.Event{Kind: dynaco.GrowRequest, Amount: accepted})
	return accepted
}

// RequestShrink delivers a mandatory shrink request. The returned value is
// the number of processors the application agrees to release (possibly more
// than requested when a structural constraint forces a bigger step, §VI-A);
// the release itself proceeds asynchronously.
func (r *MRunner) RequestShrink(request int) int {
	if !r.running {
		return 0
	}
	released := r.profile.AcceptShrink(r.planned, request)
	if released <= 0 {
		return 0
	}
	r.planned -= released
	r.noteGrowth()
	r.fw.Notify(dynaco.Event{Kind: dynaco.ShrinkRequest, Amount: released})
	return released
}

// mrunnerHandler implements dynaco.Handler on the MRunner. It is a
// separate named type so these methods do not pollute MRunner's public
// API.
type mrunnerHandler MRunner

// Done implements dynaco.Handler. The environment may have delivered
// fewer processors than the application accepted (acquisition timeout):
// reconcile the plan.
func (h *mrunnerHandler) Done(ev dynaco.Event, accepted int) {
	if ev.Kind == dynaco.GrowRequest && accepted < ev.Amount {
		h.planned -= ev.Amount - accepted
		(*MRunner)(h).noteGrowth()
	}
}

// acquisition tracks one in-flight stub batch: how many are already
// active, and the timeout that abandons the rest. It is the MRunner's
// single reusable slot (at most one batch is ever in flight: DYNACO
// serializes adaptations, and no grow arrives before the initial batch
// completes), so acquiring allocates neither per-grow state nor per-stub
// closures — it implements gram.Activator directly.
type acquisition struct {
	r        *MRunner
	n        int
	held     int
	finished bool
	// initial marks Start's batch: its completion begins execution
	// instead of resuming the DYNACO plan.
	initial  bool
	newStubs []*gram.Job
	timeout  *sim.Event
}

// acquire submits n size-1 stubs through the reusable acquisition slot.
// For grow batches (initial false) the plan resumes once all stubs are
// active or the timeout expires; Start's initial batch (initial true, no
// timeout) begins execution instead.
func (r *MRunner) acquire(n int, initial bool, timeout float64) error {
	a := &r.acq
	a.n, a.held, a.finished, a.initial = n, 0, false, initial
	a.newStubs = a.newStubs[:0]
	a.timeout = nil
	if timeout > 0 {
		a.timeout = r.engine.AfterOp(timeout, a, 0)
	}
	for i := 0; i < n; i++ {
		j, err := r.svc.Submit(1, a)
		if err != nil {
			if initial {
				return err
			}
			// Site refuses (should not happen for size-1 jobs): account the
			// stub as never held.
			a.n--
			if a.held == a.n && a.n > 0 {
				a.complete()
			}
			continue
		}
		a.newStubs = append(a.newStubs, j)
	}
	if a.n == 0 {
		a.complete()
	}
	return nil
}

// OnEvent implements sim.Handler: the acquisition timeout expired — abandon
// the stubs still in flight (a voluntary shrink from the scheduler's point
// of view) and proceed with what is held.
func (a *acquisition) OnEvent(int) {
	a.timeout = nil
	if a.finished {
		return
	}
	r := a.r
	for _, s := range a.newStubs {
		if s.State() != gram.Active && s.State() != gram.Released {
			r.svc.Release(s)
		}
	}
	a.complete()
}

func (a *acquisition) complete() {
	if a.finished {
		return
	}
	a.finished = true
	if a.timeout != nil {
		a.timeout.Cancel()
		a.timeout = nil
	}
	if a.initial {
		a.r.beginExecution()
		return
	}
	a.r.fw.AcquireDone(a.held)
}

// JobActive implements gram.Activator: one stub of the batch holds its
// node.
func (a *acquisition) JobActive(j *gram.Job) {
	r := a.r
	if a.finished || r.finished {
		// Too late — the acquisition timed out, or the application itself
		// already finished: give the node straight back.
		r.svc.Release(j)
		return
	}
	r.stubs = append(r.stubs, j)
	r.noteGrowth()
	a.held++
	if a.held == a.n {
		a.complete()
	}
}

// Acquire implements dynaco.Handler: submit n size-1 stubs and resume the
// plan once all are active (or the acquisition timeout expires, in which
// case pending stubs are abandoned).
func (h *mrunnerHandler) Acquire(n int) {
	r := (*MRunner)(h)
	r.acquire(n, false, r.cfg.AcquireTimeout)
}

// Event op codes for the mrunnerHandler's sim.Handler implementation.
const (
	opSafePoint = iota
	opRecruitDone
)

// Recruit implements dynaco.Handler: turn held stubs into application
// processes — a short suspension while processes are spawned and data is
// redistributed, then the application computes at its new size.
func (h *mrunnerHandler) Recruit(n int) {
	r := (*MRunner)(h)
	if !r.running || r.exec == nil || r.exec.Done() {
		r.fw.StepDone()
		return
	}
	target := r.exec.Procs() + n
	if target > r.profile.Max {
		target = r.profile.Max
	}
	r.exec.PauseFor(r.cfg.Costs.RecruitPause)
	r.exec.SetProcs(target)
	r.engine.AfterOp(r.cfg.Costs.RecruitPause, h, opRecruitDone)
}

// Release implements dynaco.Handler: wait for the application to reach a
// safe point, remove the processes, pause briefly for data redistribution,
// and release the corresponding GRAM jobs.
//
// The safe-point wait is scheduled as a handler op on the MRunner rather
// than a closure; DYNACO executes one adaptation at a time, so a single
// pending-release slot suffices.
func (h *mrunnerHandler) Release(n int) {
	r := (*MRunner)(h)
	if !r.running || r.exec == nil || r.exec.Done() {
		r.fw.StepDone()
		return
	}
	r.relN = n
	r.engine.AfterOp(r.cfg.Costs.SafePointDelay, h, opSafePoint)
}

// OnEvent implements sim.Handler for the recruit and safe-point delays.
func (h *mrunnerHandler) OnEvent(op int) {
	r := (*MRunner)(h)
	if op == opRecruitDone {
		r.fw.StepDone()
		return
	}
	// Safe point reached: complete the release staged by Release.
	n := r.relN
	r.relN = 0
	if !r.running || r.exec == nil || r.exec.Done() {
		r.fw.StepDone()
		return
	}
	target := r.exec.Procs() - n
	if target < r.profile.Min {
		target = r.profile.Min
	}
	release := r.exec.Procs() - target
	r.exec.SetProcs(target)
	r.exec.PauseFor(r.cfg.Costs.RedistributePause)
	for i := 0; i < release && len(r.stubs) > 0; i++ {
		last := r.stubs[len(r.stubs)-1]
		r.stubs = r.stubs[:len(r.stubs)-1]
		r.svc.Release(last)
	}
	r.noteGrowth()
	r.fw.StepDone()
}
