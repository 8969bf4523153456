package koala

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/runner"
)

// JobSpec is a complete job submission: one application profile run at one
// size in one cluster (the package doc says why there is no second
// component).
type JobSpec struct {
	ID      string
	Profile *app.Profile
	// Size is the requested processor count: the fixed size of a rigid
	// job, the initial size of a malleable one.
	Size int
}

// Validate checks the spec for structural problems.
func (s *JobSpec) Validate() error {
	if s.Profile == nil {
		return fmt.Errorf("koala: job %q has no profile", s.ID)
	}
	if err := s.Profile.Validate(); err != nil {
		return fmt.Errorf("koala: job %q: %w", s.ID, err)
	}
	if s.Size < s.Profile.Min || s.Size > s.Profile.Max {
		return fmt.Errorf("koala: job %q size %d outside [%d,%d]",
			s.ID, s.Size, s.Profile.Min, s.Profile.Max)
	}
	return nil
}

// Malleable reports whether the job's profile is malleable.
func (s *JobSpec) Malleable() bool { return s.Profile.Class == app.Malleable }

// JobState is the lifecycle of a KOALA job.
type JobState int

const (
	// Waiting means the job sits in the placement queue.
	Waiting JobState = iota
	// Placing means the job was placed and its processors are being
	// claimed.
	Placing
	// Running means the application executes.
	Running
	// Finished means the application completed.
	Finished
	// Rejected means the placement-try threshold was exceeded (§IV-A).
	Rejected
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Placing:
		return "placing"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one submitted job tracked by the scheduler.
type Job struct {
	Spec JobSpec

	state JobState
	tries int
	// seq is the submission sequence number (position in Scheduler.Jobs());
	// it breaks start-time ties in the running-malleable-job order.
	seq int
	// sched owns the job; runner lifecycle notifications and the
	// malleability message counts route back through it (see
	// JobStarted/JobFinished and RequestGrow/RequestShrink).
	sched *Scheduler

	submitTime float64
	startTime  float64
	endTime    float64

	// Once placed, a malleable job runs on mrunner and every other job on
	// rigid.
	mrunner *runner.MRunner
	rigid   *runner.RigidRunner
	// site is where the job was placed (nil while it waits). claim is the
	// processor count claimed there while the GRAM submission is in
	// flight; the scheduler drops it when the job starts.
	site  *Site
	claim int
}

// JobStarted implements runner.Lifecycle: every runner of the job reports
// into the owning scheduler without a per-job closure pair.
func (j *Job) JobStarted() { j.sched.jobStarted(j) }

// JobFinished implements runner.Lifecycle.
func (j *Job) JobFinished() { j.sched.jobFinished(j) }

// State returns the job lifecycle state.
func (j *Job) State() JobState { return j.state }

// SubmitTime returns when the job entered the system.
func (j *Job) SubmitTime() float64 { return j.submitTime }

// StartTime returns when execution began (undefined before Running).
func (j *Job) StartTime() float64 { return j.startTime }

// EndTime returns when the job finished (undefined before Finished).
func (j *Job) EndTime() float64 { return j.endTime }

// Site returns the job's execution site, or nil while it waits.
func (j *Job) Site() *Site { return j.site }

// Malleable reports whether this is a malleable job.
func (j *Job) Malleable() bool { return j.Spec.Malleable() }

// Execution returns the job's application execution (nil before it
// starts).
func (j *Job) Execution() *app.Execution {
	switch {
	case j.mrunner != nil:
		return j.mrunner.Execution()
	case j.rigid != nil:
		return j.rigid.Execution()
	}
	return nil
}

// CurrentProcs returns the processors currently used by the job's
// application.
func (j *Job) CurrentProcs() int {
	if x := j.Execution(); x != nil && !x.Done() {
		return x.Procs()
	}
	return 0
}

// HeldProcs returns the processors currently held at the clusters on behalf
// of the job, including stubs that are not yet recruited into the
// application.
func (j *Job) HeldProcs() int {
	switch {
	case j.mrunner != nil:
		return j.mrunner.Nodes()
	case j.rigid != nil:
		return j.rigid.Nodes()
	}
	return 0
}

// PlannedProcs returns the processor count after in-flight adaptations.
func (j *Job) PlannedProcs() int {
	if j.mrunner != nil {
		return j.mrunner.PlannedProcs()
	}
	return j.CurrentProcs()
}

// RequestGrow offers additional processors to a running malleable job and
// returns the accepted amount (§V-C protocol). Every policy sends its grow
// messages through here, and each one that reaches a running malleable
// job counts in Scheduler.Messages, declined or not.
func (j *Job) RequestGrow(offer int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	j.sched.growMsgs++
	return j.mrunner.RequestGrow(offer)
}

// RequestShrink asks a running malleable job to give processors back and
// returns the amount it will release. Like RequestGrow, it counts each
// message that reaches a running malleable job in Scheduler.Messages.
func (j *Job) RequestShrink(request int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	j.sched.shrinkMsgs++
	return j.mrunner.RequestShrink(request)
}

// RequestVoluntaryShrink asks a running malleable job politely to give
// processors back; the application may decline (§II-D). It returns the
// amount it will release.
func (j *Job) RequestVoluntaryShrink(request int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.RequestVoluntaryShrink(request)
}

// MinProcs returns the job's minimum processor requirement.
func (j *Job) MinProcs() int { return j.Spec.Profile.Min }
