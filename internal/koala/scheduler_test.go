package koala

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/runner"
	"repro/internal/sim"
)

func newSched(t testing.TB, cfg Config, nodes ...int) (*sim.Engine, []*Site, *Scheduler) {
	t.Helper()
	e := sim.New()
	clusters := make([]*cluster.Cluster, len(nodes))
	for i, n := range nodes {
		clusters[i] = cluster.New(string(rune('A'+i)), n)
	}
	sites := BuildSites(e, cluster.NewMulticluster(clusters...), gram.Config{SubmitLatency: 5, ReleaseLatency: 0.5})
	return e, sites, NewScheduler(e, sites, cfg)
}

func fastCfg() Config {
	return Config{
		Policy:        WorstFit{},
		PollInterval:  5,
		MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}, AcquireTimeout: 0},
	}
}

func TestSubmitAndRunRigidJob(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 16)
	var started, finished *Job
	s.OnJobStarted = func(j *Job) { started = j }
	s.OnJobFinished = func(j *Job) { finished = j }
	j, err := s.Submit(rigidSpec("r1", 2))
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(200)
	if started != j || finished != j {
		t.Fatal("lifecycle callbacks missing")
	}
	if j.State() != Finished {
		t.Fatalf("state = %v", j.State())
	}
	if j.StartTime() != 5 {
		t.Fatalf("start = %g", j.StartTime())
	}
	if math.Abs(j.EndTime()-125) > 1e-6 { // 5 + FT T(2)=120
		t.Fatalf("end = %g", j.EndTime())
	}
	if j.Site() == nil || j.Site().Name() != "A" {
		t.Fatal("site not recorded")
	}
	s.Stop()
}

func TestSubmitMalleableJobUsesMRunner(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 48)
	j, err := s.Submit(malleableSpec("m1", app.GadgetProfile(), 2))
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(100)
	if j.State() != Running || j.HeldProcs() != 2 || j.PlannedProcs() != 2 {
		t.Fatalf("state=%v held=%d planned=%d", j.State(), j.HeldProcs(), j.PlannedProcs())
	}
	if j.CurrentProcs() != 2 {
		t.Fatalf("procs = %d", j.CurrentProcs())
	}
	if got := j.RequestGrow(10); got != 10 {
		t.Fatalf("grow accepted %d", got)
	}
	e.RunUntil(200)
	if j.CurrentProcs() != 12 {
		t.Fatalf("procs = %d after grow", j.CurrentProcs())
	}
	s.Stop()
}

// TestMessagesCountOffersToRunningMalleableJobs pins Scheduler.Messages:
// every grow or shrink message that reaches a running malleable job
// counts, declined ones included; messages to a waiting, rigid or
// finished job do not.
func TestMessagesCountOffersToRunningMalleableJobs(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 6)
	fin, _ := s.Submit(malleableSpec("fin", app.FTProfile(), 2)) // runs 5..125
	m, _ := s.Submit(malleableSpec("m", app.GadgetProfile(), 2))
	r, _ := s.Submit(rigidSpec("r", 2))
	w, _ := s.Submit(malleableSpec("w", app.GadgetProfile(), 2))
	e.RunUntil(50)
	if m.State() != Running || r.State() != Running || w.State() != Waiting {
		t.Fatalf("m=%v r=%v w=%v, want running, running, waiting", m.State(), r.State(), w.State())
	}
	msgs := func(wantGrow, wantShrink uint64) {
		t.Helper()
		if g, sh := s.Messages(); g != wantGrow || sh != wantShrink {
			t.Fatalf("messages = %d grow, %d shrink; want %d, %d", g, sh, wantGrow, wantShrink)
		}
	}
	msgs(0, 0)
	if got := m.RequestShrink(4); got != 0 { // at its minimum: declined
		t.Fatalf("m released %d at its minimum", got)
	}
	msgs(0, 1)
	if got := m.RequestGrow(2); got != 2 {
		t.Fatalf("m accepted %d, want 2", got)
	}
	msgs(1, 1)
	r.RequestGrow(2)
	r.RequestShrink(1)
	w.RequestGrow(2)
	w.RequestShrink(1)
	msgs(1, 1)
	e.RunUntil(200)
	if fin.State() != Finished {
		t.Fatalf("fin = %v, want finished", fin.State())
	}
	fin.RequestGrow(2)
	fin.RequestShrink(1)
	msgs(1, 1)
	s.Stop()
}

func TestQueueingWhenFull(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 4)
	a, _ := s.Submit(rigidSpec("a", 4))
	b, _ := s.Submit(rigidSpec("b", 4))
	e.RunUntil(50)
	if a.State() != Running || b.State() != Waiting {
		t.Fatalf("a=%v b=%v", a.State(), b.State())
	}
	if s.QueueLength() != 1 {
		t.Fatalf("queue = %d", s.QueueLength())
	}
	// a finishes at 125; the poll tick then places b.
	e.RunUntil(300)
	if b.State() != Running && b.State() != Finished {
		t.Fatalf("b = %v after a finished", b.State())
	}
	s.Stop()
}

func TestPlacementTriesThresholdRejects(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxPlacementTries = 3
	e, _, s := newSched(t, cfg, 4)
	var rejected *Job
	s.OnJobRejected = func(j *Job) { rejected = j }
	// Occupy the cluster with a long job, then submit an unplaceable one.
	s.Submit(malleableSpec("long", app.GadgetProfile(), 2))
	big, _ := s.Submit(rigidSpec("big", 4))
	e.RunUntil(100) // poll ticks at 5s intervals accumulate tries
	if big.State() != Rejected {
		t.Fatalf("state = %v, tries = %d", big.State(), big.tries)
	}
	if rejected != big {
		t.Fatal("rejection callback missing")
	}
	if big.tries != 4 { // threshold 3 exceeded on the 4th try
		t.Fatalf("tries = %d", big.tries)
	}
	s.Stop()
}

// TestTerminalMatchesStateScan pins the scheduler's terminal-job count
// against a scan of every job's state, through a run that both finishes
// and rejects jobs.
func TestTerminalMatchesStateScan(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxPlacementTries = 3
	e, _, s := newSched(t, cfg, 4)
	s.Submit(rigidSpec("short", 2))
	s.Submit(rigidSpec("big", 4)) // cannot fit while short runs: rejected
	s.Submit(rigidSpec("small", 2))
	var finished, rejected int
	for _, h := range []float64{0, 10, 50, 100, 200, 400} {
		e.RunUntil(h)
		finished, rejected = 0, 0
		for _, j := range s.Jobs() {
			switch j.State() {
			case Finished:
				finished++
			case Rejected:
				rejected++
			}
		}
		if got := s.Terminal(); got != finished+rejected {
			t.Fatalf("t=%g: Terminal() = %d, state scan finds %d finished + %d rejected", h, got, finished, rejected)
		}
	}
	if finished != 2 || rejected != 1 {
		t.Fatalf("run ended with %d finished, %d rejected; want 2 and 1", finished, rejected)
	}
	s.Stop()
}

func TestJobSpecValidation(t *testing.T) {
	_, _, s := newSched(t, fastCfg(), 8)
	bad := []JobSpec{
		{ID: "none"},
		{ID: "badsize", Profile: app.FTProfile(), Size: 1},
		{ID: "nilprof", Profile: nil, Size: 2},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %q should be rejected", spec.ID)
		}
	}
}

func TestRunningMalleableJobsSortedByStart(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 48)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		id := string(rune('a' + i))
		e.RunUntil(float64(i * 50))
		j, err := s.Submit(malleableSpec(id, app.GadgetProfile(), 2))
		if err != nil {
			t.Error(err)
		}
		jobs = append(jobs, j)
	}
	e.RunUntil(200)
	got := s.RunningMalleableJobsAt(0)
	if len(got) != 3 {
		t.Fatalf("running = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].StartTime() < got[i-1].StartTime() {
			t.Fatal("not sorted by start time")
		}
	}
	s.Stop()
}

// TestRunningIndexTieBreaksBySubmissionOrder pins the incremental index to
// the order the former full stable sort produced: increasing start time,
// ties in submission order — even when same-instant jobs start out of
// submission order.
func TestRunningIndexTieBreaksBySubmissionOrder(t *testing.T) {
	_, _, s := newSched(t, fastCfg(), 48)
	mk := func(seq int, start float64) *Job {
		return &Job{Spec: malleableSpec("j", app.GadgetProfile(), 2), state: Running, seq: seq, startTime: start}
	}
	early := mk(2, 5)
	second := mk(1, 10) // same instant as first, submitted later
	first := mk(0, 10)
	s.insertRunning(0, early)
	s.insertRunning(0, second)
	s.insertRunning(0, first)
	got := s.RunningMalleableJobsAt(0)
	if len(got) != 3 || got[0] != early || got[1] != first || got[2] != second {
		t.Fatalf("index order = %v, want [early first second]", got)
	}
	s.removeRunning(0, first)
	got = s.RunningMalleableJobsAt(0)
	if len(got) != 2 || got[0] != early || got[1] != second {
		t.Fatalf("after removal: %v", got)
	}
	s.Stop()
}

// TestMoldableSizing pins that a moldable job starts at the size it was
// placed with: its requested size, not a bound of its range, however many
// processors sit idle.
func TestMoldableSizing(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 64)
	spec := JobSpec{ID: "mold", Profile: &app.Profile{Name: "m", Class: app.Moldable, Model: app.GadgetModel(), Min: 2, Max: 16}, Size: 6}
	j, _ := s.Submit(spec)
	e.RunUntil(50)
	if j.State() != Running || j.CurrentProcs() != 6 || j.HeldProcs() != 6 {
		t.Fatalf("moldable %v at %d procs, holding %d; want running at 6", j.State(), j.CurrentProcs(), j.HeldProcs())
	}
	if s.PendingClaimsAt(0) != 0 {
		t.Fatalf("pending claims = %d after start", s.PendingClaimsAt(0))
	}
	s.Stop()
}

func TestHooksReceivePollAndAvailability(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 8)
	h := &recordingHooks{}
	s.SetHooks(h)
	s.Submit(rigidSpec("r", 2))
	e.RunUntil(200)
	if h.polls == 0 {
		t.Fatal("Poll never fired")
	}
	if h.avail != 1 {
		t.Fatalf("ProcessorsAvailable fired %d times, want 1", h.avail)
	}
	s.Stop()
}

type recordingHooks struct {
	polls, avail, blocked int
	blockReturn           bool
}

func (h *recordingHooks) Poll(Snapshot)              { h.polls++ }
func (h *recordingHooks) ProcessorsAvailable()       { h.avail++ }
func (h *recordingHooks) PlacementBlocked(*Job) bool { h.blocked++; return h.blockReturn }

func TestPlacementBlockedHookStopsScan(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 4)
	h := &recordingHooks{blockReturn: true}
	s.SetHooks(h)
	s.Submit(malleableSpec("long", app.GadgetProfile(), 2)) // occupies 2
	s.Submit(rigidSpec("blocked", 4))                       // cannot fit → queue
	s.Submit(rigidSpec("fits", 2))                          // would fit, but scan must stop
	e.RunUntil(6)
	s.ScanQueue()
	if h.blocked == 0 {
		t.Fatal("PlacementBlocked never fired")
	}
	// Queue order preserved: the small job behind the blocked head did not
	// jump ahead.
	for _, j := range s.queue {
		if j.Spec.ID == "fits" && j.State() != Waiting {
			t.Fatal("job behind blocked head was placed")
		}
	}
	s.Stop()
}

func TestJobStateString(t *testing.T) {
	for st, want := range map[JobState]string{Waiting: "waiting", Placing: "placing", Running: "running", Finished: "finished", Rejected: "rejected", JobState(9): "state(9)"} {
		if st.String() != want {
			t.Errorf("JobState(%d) = %q", int(st), st.String())
		}
	}
}

func TestMinMaxProcs(t *testing.T) {
	spec := malleableSpec("m", app.FTProfile(), 2)
	j := &Job{Spec: spec}
	if j.MinProcs() != 2 || j.Spec.Profile.Max != 32 {
		t.Fatalf("min=%d max=%d", j.MinProcs(), j.Spec.Profile.Max)
	}
}

func TestAutoJobID(t *testing.T) {
	e, _, s := newSched(t, fastCfg(), 8)
	a, _ := s.Submit(rigidSpec("", 2))
	b, _ := s.Submit(rigidSpec("", 2))
	if a.Spec.ID == "" || a.Spec.ID == b.Spec.ID {
		t.Fatalf("IDs: %q %q", a.Spec.ID, b.Spec.ID)
	}
	e.RunUntil(1)
	s.Stop()
}

// TestReservedFollowsInFlightGrowth pins the per-site in-flight growth
// count to each change it must follow: grows accepted, stubs activated,
// shrinks in flight (a share clamps at 0), a release at a safe point with
// a grow queued behind it, a plan an acquisition timeout reconciles, and
// a job finishing with growth in flight.
func TestReservedFollowsInFlightGrowth(t *testing.T) {
	cfg := fastCfg()
	cfg.MRunnerConfig = runner.MRunnerConfig{Costs: app.ReconfigCosts{SafePointDelay: 5}, AcquireTimeout: 30}
	e, sites, s := newSched(t, cfg, 16)
	want := func(step string, n int) {
		t.Helper()
		if got := s.ReservedAt(0); got != n {
			t.Fatalf("%s: reserved %d, want %d", step, got, n)
		}
	}
	a, _ := s.Submit(malleableSpec("a", app.GadgetProfile(), 2))
	b, _ := s.Submit(malleableSpec("b", app.GadgetProfile(), 6))
	e.RunUntil(10)
	if a.State() != Running || b.State() != Running {
		t.Fatalf("a=%v b=%v, want both running", a.State(), b.State())
	}
	want("started", 0)
	a.RequestGrow(4)
	want("a grows by 4", 4)
	// b plans 3 but still holds 6: its share clamps at 0 instead of
	// cancelling part of a's, and stays there while its grow of 2 queues
	// behind the shrink.
	b.RequestShrink(3)
	want("b shrinks by 3", 4)
	b.RequestGrow(2)
	want("b grows by 2 behind its shrink", 4)
	e.RunUntil(17) // a's stubs active and b's safe point passed at 15
	want("b released 3, its grow in flight", 2)
	e.RunUntil(25) // b's stubs active at 20
	if a.HeldProcs() != 6 || b.HeldProcs() != 5 {
		t.Fatalf("held a=%d b=%d, want 6 and 5", a.HeldProcs(), b.HeldProcs())
	}
	want("every stub active", 0)
	a.RequestGrow(4)
	a.RequestShrink(3)
	want("a shrinks by 3 with a grow of 4 in flight", 1)
	e.RunUntil(40)
	want("a settled at 7", 0)
	// Background takes every idle node, so the next grow's stubs stay
	// pending until the timeout abandons them and reconciles the plan.
	if err := sites[0].Cluster().SeizeBackground(4); err != nil {
		t.Fatal(err)
	}
	a.RequestGrow(2)
	want("a grows by 2 into a full cluster", 2)
	e.RunUntil(80)
	if a.PlannedProcs() != 7 {
		t.Fatalf("after the timeout a plans %d, want 7", a.PlannedProcs())
	}
	want("the timeout reconciled the plan", 0)
	s.Stop()

	// Without a timeout the stubs stay pending until the job finishes;
	// its share has left the count by the time the scheduler hears of it.
	e, sites, s = newSched(t, fastCfg(), 4)
	c, _ := s.Submit(malleableSpec("c", app.GadgetProfile(), 2))
	atFinish := -1
	s.OnJobFinished = func(*Job) { atFinish = s.ReservedAt(0) }
	e.RunUntil(10)
	if err := sites[0].Cluster().SeizeBackground(2); err != nil {
		t.Fatal(err)
	}
	c.RequestGrow(2)
	want("c grows by 2 into a full cluster", 2)
	e.RunUntil(1000)
	if c.State() != Finished || atFinish != 0 {
		t.Fatalf("c=%v, reserved %d at its finish; want finished and 0", c.State(), atFinish)
	}
	want("c finished", 0)
	s.Stop()
}
