package koala

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/runner"
)

// File names an input file and its size, for the Close-to-Files policy.
type File struct {
	Name  string
	Bytes float64
}

// ComponentSpec describes one job component (§IV-A): the program to run,
// the number of processors it needs, and its input files. Jobs with several
// components are co-allocated across clusters.
type ComponentSpec struct {
	Profile *app.Profile
	// Size is the requested processor count: the fixed size for rigid
	// components, the initial size for malleable ones.
	Size       int
	InputFiles []File
}

// JobSpec is a complete job submission.
type JobSpec struct {
	ID         string
	Components []ComponentSpec
}

// Validate checks the spec for structural problems.
func (s *JobSpec) Validate() error {
	if len(s.Components) == 0 {
		return fmt.Errorf("koala: job %q has no components", s.ID)
	}
	malleable := false
	for i, c := range s.Components {
		if c.Profile == nil {
			return fmt.Errorf("koala: job %q component %d has no profile", s.ID, i)
		}
		if err := c.Profile.Validate(); err != nil {
			return fmt.Errorf("koala: job %q component %d: %w", s.ID, i, err)
		}
		if c.Size < c.Profile.Min || c.Size > c.Profile.Max {
			return fmt.Errorf("koala: job %q component %d size %d outside [%d,%d]",
				s.ID, i, c.Size, c.Profile.Min, c.Profile.Max)
		}
		if c.Profile.Class == app.Malleable {
			malleable = true
		}
	}
	if malleable && len(s.Components) > 1 {
		// §V-C: every malleable application executes in a single cluster;
		// malleability of co-allocated applications is future work.
		return fmt.Errorf("koala: job %q is malleable with %d components; malleable jobs are single-component", s.ID, len(s.Components))
	}
	return nil
}

// TotalSize returns the sum of the component sizes.
func (s *JobSpec) TotalSize() int {
	total := 0
	for _, c := range s.Components {
		total += c.Size
	}
	return total
}

// Malleable reports whether the job's (single) component is malleable.
func (s *JobSpec) Malleable() bool {
	return len(s.Components) == 1 && s.Components[0].Profile.Class == app.Malleable
}

// JobState is the lifecycle of a KOALA job.
type JobState int

const (
	// Waiting means the job sits in the placement queue.
	Waiting JobState = iota
	// Placing means components were placed and resources are being claimed.
	Placing
	// Running means the application(s) execute.
	Running
	// Finished means all components completed.
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
	// sites records where each placed component landed; sitesBuf is its
	// inline backing for the common one- and two-component cases.
	sites    []*Site
	sitesBuf [2]*Site
	// claims records the processors claimed for each placement, parallel
	// to sites, while GRAM submissions are in flight; claimsBuf is its
	// inline backing. The scheduler drops them when the job starts.
	claims    []int
	claimsBuf [2]int
}

// JobStarted implements runner.Lifecycle: every runner of the job reports
// into the owning scheduler without a per-job closure pair.
func (j *Job) JobStarted() { j.sched.jobStarted(j) }

// JobFinished implements runner.Lifecycle.
func (j *Job) JobFinished() { j.sched.jobFinished(j) }

// State returns the job lifecycle state.
func (j *Job) State() JobState { return j.state }

// Tries returns the number of placement attempts so far.
func (j *Job) Tries() int { return j.tries }

// SubmitTime returns when the job entered the system.
func (j *Job) SubmitTime() float64 { return j.submitTime }

// StartTime returns when execution began (undefined before Running).
func (j *Job) StartTime() float64 { return j.startTime }

// EndTime returns when the job finished (undefined before Finished).
func (j *Job) EndTime() float64 { return j.endTime }

// Sites returns the execution sites of the placed components.
func (j *Job) Sites() []*Site { return j.sites }

// Site returns the single execution site of a single-component job, or nil.
func (j *Job) Site() *Site {
	if len(j.sites) != 1 {
		return nil
	}
	return j.sites[0]
}

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

// AppRequestGrow lets the job's application itself ask the scheduler for
// more processors (§II-C). It returns the processors obtained.
func (j *Job) AppRequestGrow(amount int) int {
	if j.mrunner == nil || j.state != Running {
		return 0
	}
	return j.mrunner.AppRequestGrow(amount)
}

// MinProcs returns the job's minimum processor requirement.
func (j *Job) MinProcs() int {
	total := 0
	for _, c := range j.Spec.Components {
		total += c.Profile.Min
	}
	return total
}

// MaxProcs returns the job's maximum useful processor count.
func (j *Job) MaxProcs() int {
	total := 0
	for _, c := range j.Spec.Components {
		total += c.Profile.Max
	}
	return total
}
