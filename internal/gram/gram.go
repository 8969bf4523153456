// Package gram models the GLOBUS GRAM job-submission service that KOALA's
// runners use to acquire processors (§IV-A, §V-A). GRAM is not
// malleability-aware, so the Malleable Runner manages a malleable
// application as a *collection of GRAM jobs of size 1*: growth submits new
// size-1 jobs (each paying the full submission latency — security
// enforcement, queue management), and shrinking releases some of them.
//
// Submissions launch an empty *stub* rather than the application program;
// the stub is recruited into an application process later, which is much
// faster than a submission (§V-A). The latency model below captures exactly
// that asymmetry.
package gram

import (
	"fmt"

	"repro/internal/lrm"
	"repro/internal/sim"
	"repro/internal/slab"
)

// Config holds the latency model of a GRAM service.
type Config struct {
	// SubmitLatency is the delay between Submit and the moment the stub
	// reaches the local resource manager (security, staging, queue
	// management). The stub becomes Active once the LRM starts it.
	SubmitLatency float64
	// ReleaseLatency is the delay between Release and the nodes actually
	// returning to the idle pool.
	ReleaseLatency float64
	// SubmitConcurrency bounds how many submissions the gatekeeper
	// processes at once; further submissions queue. This is the "poor
	// reactivity" of managing a malleable job as a collection of size-1
	// GRAM jobs that §V-A points out: growing by k processors costs about
	// k/SubmitConcurrency·SubmitLatency. Zero means unlimited.
	SubmitConcurrency int
}

// DefaultConfig reflects the order of magnitude observed on DAS-3 with
// GLOBUS pre-WS GRAM: a few seconds per submission, sub-second releases,
// and a gatekeeper that serves a handful of submissions concurrently. The
// per-stub overhead is what makes managing a malleable job as a collection
// of size-1 GRAM jobs poorly reactive (§V-A) without starving the rest of
// the site for minutes.
func DefaultConfig() Config {
	return Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: 8}
}

// State is the lifecycle state of a GRAM job.
type State int

const (
	// Submitted means the job is in flight towards the LRM.
	Submitted State = iota
	// Pending means the job reached the LRM and waits for nodes.
	Pending
	// Active means the stub runs and its nodes are held.
	Active
	// Released means the job has terminated and freed its nodes.
	Released
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Submitted:
		return "submitted"
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Released:
		return "released"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one GRAM job (size-1 for the Malleable Runner's stubs, arbitrary
// size for rigid jobs).
type Job struct {
	Nodes int

	seq       int
	state     State
	lrmJob    *lrm.Job
	svc       *Service
	activator Activator
	released  bool // release requested (possibly while still in flight)
	// next links the members of the arrive or release-done batch the
	// job's event belongs to (see Service.arrivals).
	next *Job
}

// ID returns the job's identifier. It is formatted lazily: the hot path
// never pays for a per-submission string.
func (j *Job) ID() string { return fmt.Sprintf("gram-%s-%d", j.svc.SiteName(), j.seq) }

// State returns the job's lifecycle state.
func (j *Job) State() State { return j.state }

// Event op codes for the Job's sim.Handler implementation.
const (
	opArrive      = iota // submission latency elapsed: hand to the LRM
	opReleaseDone        // release latency elapsed: free the LRM job
)

// OnEvent implements sim.Handler: the job's latency events fire on the job
// itself, so the gatekeeper and release paths schedule no closures. The
// event runs the whole batch it heads, member by member, each exactly as
// its own event would have.
func (j *Job) OnEvent(op int) {
	s := j.svc
	switch op {
	case opArrive:
		s.arrivals.Close(s.engine)
		for j != nil {
			next := j.next
			j.next = nil
			s.inFlight--
			s.arriveAtLRM(j)
			s.drainBacklog()
			j = next
		}
	case opReleaseDone:
		s.releasesDone.Close(s.engine)
		for j != nil {
			next := j.next
			j.next = nil
			if j.lrmJob.State() == lrm.Running {
				s.mgr.Finish(j.lrmJob)
			}
			j = next
		}
	}
}

// stubBatch is a sim.Batch of one GRAM event kind whose members are
// linked through Job.next; tail is the last member of the open batch.
type stubBatch struct {
	sim.Batch
	tail *Job
}

// schedule fires j's op event delay seconds from now, as a member of the
// open batch when nothing can sort between them.
func (b *stubBatch) schedule(e *sim.Engine, delay float64, j *Job, op int) {
	t := e.Now() + delay
	if b.Join(e, t) {
		b.tail.next = j
	} else {
		b.Open(e, t, j, op)
	}
	b.tail = j
}

// Service is the GRAM endpoint of one execution site.
type Service struct {
	engine *sim.Engine
	mgr    *lrm.Manager
	cfg    Config
	seq    int

	inFlight int
	// backlog is a head-indexed FIFO of submissions waiting for a
	// gatekeeper slot (see lrm.Manager.queue for the rationale).
	backlog     []*Job
	backlogHead int

	// arrivals and releasesDone batch the arrive and release-done events
	// that the runners' submit and release loops schedule back to back,
	// one per size-1 stub.
	arrivals, releasesDone stubBatch

	// jobs hands out Job structs; a handle stays valid until the service
	// is torn down.
	jobs slab.Slab[Job]
}

// jobPool holds the Job chunks of torn-down services.
var jobPool slab.Pool[Job]

// New creates a GRAM service submitting to the given LRM.
func New(engine *sim.Engine, mgr *lrm.Manager, cfg Config) *Service {
	if cfg.SubmitLatency < 0 || cfg.ReleaseLatency < 0 {
		panic("gram: negative latency")
	}
	if cfg.SubmitConcurrency < 0 {
		panic("gram: negative submit concurrency")
	}
	return &Service{engine: engine, mgr: mgr, cfg: cfg, jobs: slab.New(&jobPool)}
}

// Teardown hands the memory of every Job the service made to the pool
// for later services. (Release is the per-job GRAM operation.) Neither
// the service nor any of its jobs may be used afterwards.
func (s *Service) Teardown() { s.jobs.Release() }

// SiteName returns the name of the execution site (the LRM's cluster).
func (s *Service) SiteName() string { return s.mgr.Cluster().Name() }

// Activator receives stub activation notifications. A caller that
// submits many stubs (the Malleable Runner's acquisitions) implements it
// once and passes itself to every Submit, so the grow hot path allocates
// no per-submission closures.
type Activator interface {
	JobActive(j *Job)
}

// Submit launches a GRAM job for nodes nodes. a, when non-nil, is told
// once the stub holds its nodes. The returned handle can be released at
// any point of its life (including before it becomes active).
func (s *Service) Submit(nodes int, a Activator) (*Job, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("gram %s: submit of %d nodes", s.SiteName(), nodes)
	}
	if nodes > s.mgr.Cluster().Nodes() {
		return nil, fmt.Errorf("gram %s: %d nodes exceed cluster size %d",
			s.SiteName(), nodes, s.mgr.Cluster().Nodes())
	}
	j := s.jobs.Alloc()
	j.Nodes = nodes
	j.seq = s.seq
	j.state = Submitted
	j.svc = s
	j.activator = a
	s.seq++
	if s.cfg.SubmitConcurrency > 0 && s.inFlight >= s.cfg.SubmitConcurrency {
		s.backlog = append(s.backlog, j)
		return j, nil
	}
	s.beginSubmission(j)
	return j, nil
}

// beginSubmission occupies a gatekeeper slot for SubmitLatency.
func (s *Service) beginSubmission(j *Job) {
	s.inFlight++
	s.arrivals.schedule(s.engine, s.cfg.SubmitLatency, j, opArrive)
}

func (s *Service) drainBacklog() {
	for s.backlogHead < len(s.backlog) && (s.cfg.SubmitConcurrency == 0 || s.inFlight < s.cfg.SubmitConcurrency) {
		next := s.backlog[s.backlogHead]
		s.backlog[s.backlogHead] = nil
		s.backlogHead++
		if s.backlogHead == len(s.backlog) {
			s.backlog = s.backlog[:0]
			s.backlogHead = 0
		}
		if next.released {
			next.state = Released
			continue
		}
		s.beginSubmission(next)
	}
}

func (s *Service) arriveAtLRM(j *Job) {
	if j.released { // released while still in flight: never reaches the LRM
		j.state = Released
		return
	}
	lj, err := s.mgr.Submit(j, j.Nodes)
	if err != nil {
		// Validated at Submit; reaching this means the model is inconsistent.
		panic(fmt.Sprintf("gram %s: LRM rejected validated job: %v", s.SiteName(), err))
	}
	j.state = Pending
	j.lrmJob = lj
}

// JobStarted implements lrm.Starter: the LRM job holds its nodes.
func (j *Job) JobStarted(*lrm.Job) { j.svc.activate(j) }

func (s *Service) activate(j *Job) {
	if j.released {
		// Released while queued at the LRM: free the nodes right away.
		s.mgr.Finish(j.lrmJob)
		j.state = Released
		return
	}
	j.state = Active
	if j.activator != nil {
		j.activator.JobActive(j)
	}
}

// Release terminates a GRAM job at whatever stage it is. For an active job
// the nodes return to the idle pool after ReleaseLatency; for an in-flight
// or pending job the release takes effect when the job would have started.
func (s *Service) Release(j *Job) error {
	if j.svc != s {
		return fmt.Errorf("gram %s: job %q belongs to another service", s.SiteName(), j.ID())
	}
	if j.released || j.state == Released {
		return fmt.Errorf("gram %s: double release of %q", s.SiteName(), j.ID())
	}
	j.released = true
	switch j.state {
	case Active:
		s.releasesDone.schedule(s.engine, s.cfg.ReleaseLatency, j, opReleaseDone)
		j.state = Released
	case Pending:
		if err := s.mgr.Cancel(j.lrmJob); err == nil {
			j.state = Released
		}
		// If Cancel failed the job is racing into Running; activate() will
		// observe j.released and finish it.
	case Submitted:
		// arriveAtLRM will observe j.released and drop the job.
	}
	return nil
}
