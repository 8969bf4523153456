package lrm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// startFunc adapts a closure to Starter for tests.
type startFunc func(*Job)

func (f startFunc) JobStarted(j *Job) { f(j) }

func setup(nodes int) (*sim.Engine, *cluster.Cluster, *Manager) {
	e := sim.New()
	c := cluster.New("c", nodes)
	return e, c, New(e, c)
}

func TestImmediateStart(t *testing.T) {
	e, c, m := setup(10)
	started := false
	j, err := m.Submit(startFunc(func(*Job) { started = true }), 4)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !started || j.State() != Running {
		t.Fatalf("job did not start: state=%v", j.State())
	}
	if c.Used() != 4 {
		t.Fatalf("used = %d, want 4", c.Used())
	}
}

func TestFCFSQueueing(t *testing.T) {
	e, c, m := setup(10)
	var order []*Job
	start := startFunc(func(j *Job) { order = append(order, j) })
	a, _ := m.Submit(start, 8)
	b, _ := m.Submit(start, 8)
	small, _ := m.Submit(start, 2)
	e.RunUntil(1)
	// Strict FCFS without backfilling: "small" must wait behind "b" even
	// though 2 nodes are idle while "a" runs.
	if len(order) != 1 || order[0] != a {
		t.Fatalf("started %v, want only a", order)
	}
	if b.State() != Queued || small.State() != Queued {
		t.Fatal("b and small should be queued")
	}
	if c.Idle() != 2 {
		t.Fatalf("idle = %d", c.Idle())
	}
	if m.QueueLength() != 2 {
		t.Fatalf("queue length = %d", m.QueueLength())
	}
	if err := m.Finish(a); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2)
	if len(order) != 3 || order[1] != b || order[2] != small {
		t.Fatalf("order = %v", order)
	}
}

func TestFinishReleasesNodes(t *testing.T) {
	e, c, m := setup(6)
	j, _ := m.Submit(nil, 6)
	e.Run()
	if err := m.Finish(j); err != nil {
		t.Fatal(err)
	}
	if c.Idle() != 6 || j.State() != Finished {
		t.Fatalf("idle=%d state=%v", c.Idle(), j.State())
	}
	if err := m.Finish(j); err == nil {
		t.Fatal("double finish should fail")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e, _, m := setup(4)
	a, _ := m.Submit(nil, 4)
	b, _ := m.Submit(nil, 4)
	e.RunUntil(1)
	if err := m.Cancel(b); err != nil {
		t.Fatal(err)
	}
	if b.State() != Canceled {
		t.Fatalf("state = %v", b.State())
	}
	if err := m.Cancel(a); err == nil {
		t.Fatal("cancel of running job should fail")
	}
	if err := m.Cancel(b); err == nil {
		t.Fatal("cancel of canceled job should fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, m := setup(4)
	if _, err := m.Submit(nil, 0); err == nil {
		t.Fatal("zero-node job should fail")
	}
	if _, err := m.Submit(nil, 5); err == nil {
		t.Fatal("job larger than cluster should fail")
	}
}

func TestAutoID(t *testing.T) {
	e, _, m := setup(4)
	a, _ := m.Submit(nil, 1)
	b, _ := m.Submit(nil, 1)
	e.Run()
	if a.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("auto IDs not unique: %q %q", a.ID(), b.ID())
	}
}

func TestStartCallbackSeesRunningState(t *testing.T) {
	e, _, m := setup(2)
	var seen State = -1
	j, _ := m.Submit(startFunc(func(j *Job) { seen = j.State() }), 2)
	e.Run()
	if seen != Running {
		t.Fatalf("callback saw state %v", seen)
	}
	_ = j
}

func TestManyOneNodeJobs(t *testing.T) {
	// The MRunner pattern: a malleable app is a collection of size-1 jobs.
	e, c, m := setup(5)
	started := 0
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := m.Submit(startFunc(func(*Job) { started++ }), 1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	e.RunUntil(1)
	if started != 5 || c.Idle() != 0 {
		t.Fatalf("started=%d idle=%d", started, c.Idle())
	}
	m.Finish(jobs[0])
	m.Finish(jobs[1])
	e.RunUntil(2)
	if started != 7 {
		t.Fatalf("started=%d after finishing two", started)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Queued: "queued", Running: "running", Finished: "finished", Canceled: "canceled", State(9): "state(9)"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", int(s), s.String())
		}
	}
}

func TestBackgroundLoadBlocksDispatch(t *testing.T) {
	e, c, m := setup(10)
	c.SeizeBackground(8)
	j, _ := m.Submit(nil, 4)
	e.RunUntil(1)
	if j.State() != Queued {
		t.Fatal("job should queue behind background load")
	}
	// Background users leave without telling the LRM; the periodic SGE
	// scheduling pass must pick the freed nodes up on its own.
	c.ReleaseBackground(8)
	e.RunUntil(1 + 2*SchedulingInterval)
	if j.State() != Running {
		t.Fatalf("job state = %v after background release", j.State())
	}
}

func TestRetryPassDoesNotLeakWhenQueueDrains(t *testing.T) {
	e, _, m := setup(4)
	a, _ := m.Submit(nil, 4)
	b, _ := m.Submit(nil, 4)
	e.RunUntil(1)
	m.Finish(a)
	e.RunUntil(2)
	if b.State() != Running {
		t.Fatalf("b = %v", b.State())
	}
	// Queue is empty; the engine must drain completely (no immortal retry).
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("events still pending after drain: %d", e.Pending())
	}
}

// TestBlockedDispatchAllocatesNothing pins that a dispatch pass whose
// FCFS head does not fit builds no error: under load that pass runs on
// every submission, finish and retry.
func TestBlockedDispatchAllocatesNothing(t *testing.T) {
	_, _, m := setup(4)
	if _, err := m.Submit(nil, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(nil, 2); err != nil {
		t.Fatal(err)
	}
	if m.QueueLength() != 1 || m.retry == nil {
		t.Fatalf("queue %d, retry armed %v: want the blocked head queued with a retry armed", m.QueueLength(), m.retry != nil)
	}
	if allocs := testing.AllocsPerRun(100, m.dispatch); allocs != 0 {
		t.Fatalf("a blocked dispatch pass allocates %.1f objects, want 0", allocs)
	}
}
