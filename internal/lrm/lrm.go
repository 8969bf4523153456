// Package lrm models the local resource manager of each cluster — the Sun
// Grid Engine of the DAS-3 testbed (§VI-B). SGE is configured space-shared:
// jobs get exclusive nodes, the allocation granularity is the node, and
// queued jobs start first-come-first-served as nodes free up.
//
// The grid layers above (GRAM, KOALA) never touch cluster allocations
// directly; every node held on behalf of a grid job is held through an LRM
// job, exactly as on the real testbed.
package lrm

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/slab"
)

// State is the lifecycle state of an LRM job.
type State int

const (
	// Queued means the job waits for enough idle nodes.
	Queued State = iota
	// Running means the job holds its nodes.
	Running
	// Finished means the job completed and released its nodes.
	Finished
	// Canceled means the job was removed from the queue before starting.
	Canceled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Finished:
		return "finished"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Starter receives the start notification of an LRM job. The GRAM layer
// implements it on its own jobs, so its stub churn allocates no per-job
// closures.
type Starter interface {
	JobStarted(*Job)
}

// Job is one space-shared job managed by the LRM.
type Job struct {
	Nodes int

	seq     int
	state   State
	starter Starter
	mgr     *Manager
	// next links the members of the start batch the job's event belongs
	// to (see Manager.starts).
	next *Job
}

// ID returns the job's identifier. It is formatted lazily: the hot path
// never pays for a per-submission string.
func (j *Job) ID() string { return fmt.Sprintf("%s-job-%d", j.mgr.clus.Name(), j.seq) }

// State returns the job's lifecycle state.
func (j *Job) State() State { return j.state }

// opStart is the Job's only sim.Handler op: deliver the start callback.
const opStart = 0

// OnEvent implements sim.Handler: the deferred start notification fires on
// the job itself, so dispatch schedules no closures. The event delivers
// the whole batch it heads, in dispatch order.
func (j *Job) OnEvent(int) {
	j.mgr.starts.Close(j.mgr.engine)
	for j != nil {
		next := j.next
		j.next = nil
		j.starter.JobStarted(j)
		j = next
	}
}

// SchedulingInterval is the period at which a non-empty queue is rescanned
// even without submissions or completions — the SGE scheduler run interval.
// Nodes can free up behind the LRM's back (local users logging out), and on
// the real testbed SGE's periodic scheduling pass picks those up.
const SchedulingInterval = 15.0

// Manager is the per-cluster local resource manager.
type Manager struct {
	engine *sim.Engine
	clus   *cluster.Cluster
	// queue is a head-indexed FIFO: dispatch advances head instead of
	// re-slicing from the front, which would force an append reallocation
	// per submission under steady stub churn.
	queue []*Job
	head  int

	dispatching bool
	retry       *sim.Event
	seq         int

	// starts batches the start notifications one dispatch pass defers
	// back to back; startTail is the last member of the open batch.
	starts    sim.Batch
	startTail *Job

	// jobs hands out Job structs; a handle stays valid until the manager
	// is torn down.
	jobs slab.Slab[Job]
}

// jobPool holds the Job chunks of torn-down managers.
var jobPool slab.Pool[Job]

// opRetry is the Manager's only sim.Handler op: the periodic SGE-style
// scheduling pass while jobs wait.
const opRetry = 0

// OnEvent implements sim.Handler.
func (m *Manager) OnEvent(int) {
	m.retry = nil
	m.dispatch()
}

// New creates an LRM driving the given cluster.
func New(engine *sim.Engine, clus *cluster.Cluster) *Manager {
	return &Manager{engine: engine, clus: clus, jobs: slab.New(&jobPool)}
}

// Teardown hands the memory of every Job the manager made to the pool
// for later managers. Neither the manager nor any of its jobs may be
// used afterwards.
func (m *Manager) Teardown() { m.jobs.Release() }

// Cluster returns the managed cluster.
func (m *Manager) Cluster() *cluster.Cluster { return m.clus }

// QueueLength returns the number of jobs waiting for nodes.
func (m *Manager) QueueLength() int { return len(m.queue) - m.head }

// Submit enqueues a job for nodes nodes; s, when non-nil, is told (via
// the simulation engine, at the start instant) once the job holds its
// nodes. Jobs start FCFS as capacity allows.
func (m *Manager) Submit(s Starter, nodes int) (*Job, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("lrm %s: job requests %d nodes", m.clus.Name(), nodes)
	}
	if nodes > m.clus.Nodes() {
		return nil, fmt.Errorf("lrm %s: job requests %d nodes but cluster has %d",
			m.clus.Name(), nodes, m.clus.Nodes())
	}
	j := m.jobs.Alloc()
	j.seq = m.seq
	j.Nodes = nodes
	j.state = Queued
	j.starter = s
	j.mgr = m
	m.seq++
	m.queue = append(m.queue, j)
	m.dispatch()
	return j, nil
}

// Cancel removes a queued job. Canceling a running or completed job fails;
// use Finish for running jobs.
func (m *Manager) Cancel(j *Job) error {
	if j.state != Queued {
		return fmt.Errorf("lrm %s: cancel of %s job %q", m.clus.Name(), j.state, j.ID())
	}
	for i := m.head; i < len(m.queue); i++ {
		if m.queue[i] == j {
			copy(m.queue[i:], m.queue[i+1:])
			m.queue[len(m.queue)-1] = nil
			m.queue = m.queue[:len(m.queue)-1]
			j.state = Canceled
			return nil
		}
	}
	return fmt.Errorf("lrm %s: job %q not found in queue", m.clus.Name(), j.ID())
}

// Finish completes a running job, releasing its nodes and dispatching any
// queued jobs that now fit.
func (m *Manager) Finish(j *Job) error {
	if j.state != Running {
		return fmt.Errorf("lrm %s: finish of %s job %q", m.clus.Name(), j.state, j.ID())
	}
	if err := m.clus.Free(j.Nodes); err != nil {
		return err
	}
	j.state = Finished
	m.dispatch()
	return nil
}

// dispatch starts queued jobs FCFS while the head fits. It defers actual
// start callbacks through the engine so that state transitions triggered by
// a release do not reentrantly interleave with the releasing caller. When
// the head still does not fit, a retry is armed at the SGE scheduling
// interval so that nodes freed outside the LRM's view (background users
// leaving) are eventually picked up.
func (m *Manager) dispatch() {
	if m.dispatching {
		return
	}
	m.dispatching = true
	defer func() {
		m.dispatching = false
		m.armRetry()
	}()
	for m.head < len(m.queue) {
		head := m.queue[m.head]
		// Allocate's own capacity test, checked first so that a blocked
		// head — the common case under load — formats no error.
		if head.Nodes > m.clus.Idle() {
			return // strict FCFS: the head blocks the queue (no backfilling)
		}
		if err := m.clus.Allocate(head.Nodes); err != nil {
			panic(fmt.Sprintf("lrm %s: %v", m.clus.Name(), err))
		}
		m.queue[m.head] = nil
		m.head++
		if m.head == len(m.queue) {
			m.queue = m.queue[:0]
			m.head = 0
		}
		head.state = Running
		if head.starter != nil {
			m.deferStart(head)
		}
	}
}

// deferStart schedules j's start notification for the current instant,
// as a member of the open start batch when nothing can sort between them.
func (m *Manager) deferStart(j *Job) {
	now := m.engine.Now()
	if m.starts.Join(m.engine, now) {
		m.startTail.next = j
	} else {
		m.starts.Open(m.engine, now, j, opStart)
	}
	m.startTail = j
}

// armRetry schedules the next periodic scheduling pass while jobs wait.
func (m *Manager) armRetry() {
	if m.QueueLength() == 0 || m.retry != nil {
		return
	}
	m.retry = m.engine.AfterOp(SchedulingInterval, m, opRetry)
}
