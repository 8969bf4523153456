package gram

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/lrm"
	"repro/internal/sim"
)

// activeFunc adapts a closure to Activator for tests.
type activeFunc func(*Job)

func (f activeFunc) JobActive(j *Job) { f(j) }

func setup(nodes int, cfg Config) (*sim.Engine, *cluster.Cluster, *Service) {
	e := sim.New()
	c := cluster.New("site", nodes)
	return e, c, New(e, lrm.New(e, c), cfg)
}

func TestSubmitLatency(t *testing.T) {
	e, c, s := setup(8, Config{SubmitLatency: 5, ReleaseLatency: 1})
	var activeAt float64 = -1
	j, err := s.Submit(2, activeFunc(func(*Job) { activeAt = e.Now() }))
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != Submitted {
		t.Fatalf("state = %v right after submit", j.State())
	}
	e.Run()
	if activeAt != 5 {
		t.Fatalf("job active at %g, want 5", activeAt)
	}
	if j.State() != Active || c.Used() != 2 {
		t.Fatalf("state=%v used=%d", j.State(), c.Used())
	}
}

func TestReleaseActiveJob(t *testing.T) {
	e, c, s := setup(8, Config{SubmitLatency: 2, ReleaseLatency: 3})
	j, _ := s.Submit(4, nil)
	e.RunUntil(2)
	if j.State() != Active {
		t.Fatalf("state = %v", j.State())
	}
	if err := s.Release(j); err != nil {
		t.Fatal(err)
	}
	if c.Used() != 4 {
		t.Fatal("nodes should still be held during release latency")
	}
	e.RunUntil(5.1)
	if c.Used() != 0 || j.State() != Released {
		t.Fatalf("used=%d state=%v after release", c.Used(), j.State())
	}
}

func TestReleaseInFlightJobNeverHoldsNodes(t *testing.T) {
	e, c, s := setup(8, Config{SubmitLatency: 5, ReleaseLatency: 1})
	j, _ := s.Submit(3, activeFunc(func(*Job) { t.Error("released job became active") }))
	if err := s.Release(j); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if c.Used() != 0 || j.State() != Released {
		t.Fatalf("used=%d state=%v", c.Used(), j.State())
	}
}

func TestReleasePendingJob(t *testing.T) {
	e, c, s := setup(4, Config{SubmitLatency: 1, ReleaseLatency: 1})
	blocker, _ := s.Submit(4, nil)
	j, _ := s.Submit(2, activeFunc(func(*Job) { t.Error("released pending job became active") }))
	e.RunUntil(1.5)
	if j.State() != Pending {
		t.Fatalf("state = %v, want pending", j.State())
	}
	if err := s.Release(j); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if j.State() != Released {
		t.Fatalf("state = %v", j.State())
	}
	_ = blocker
	_ = c
}

func TestDoubleReleaseFails(t *testing.T) {
	e, _, s := setup(4, DefaultConfig())
	j, _ := s.Submit(1, nil)
	e.Run()
	if err := s.Release(j); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(j); err == nil {
		t.Fatal("double release should fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, s := setup(4, DefaultConfig())
	if _, err := s.Submit(0, nil); err == nil {
		t.Fatal("zero-node submit should fail")
	}
	if _, err := s.Submit(5, nil); err == nil {
		t.Fatal("oversize submit should fail")
	}
}

func TestForeignJobRelease(t *testing.T) {
	e := sim.New()
	c1 := cluster.New("a", 4)
	c2 := cluster.New("b", 4)
	s1 := New(e, lrm.New(e, c1), DefaultConfig())
	s2 := New(e, lrm.New(e, c2), DefaultConfig())
	j, _ := s1.Submit(1, nil)
	if err := s2.Release(j); err == nil {
		t.Fatal("releasing a foreign job should fail")
	}
}

func TestStubCollectionGrowShrink(t *testing.T) {
	// The MRunner pattern end to end: grow by submitting size-1 stubs,
	// shrink by releasing some of them.
	e, c, s := setup(10, Config{SubmitLatency: 2, ReleaseLatency: 0.5})
	active := 0
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(1, activeFunc(func(*Job) { active++ }))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	e.Run()
	if active != 6 || c.Used() != 6 {
		t.Fatalf("active=%d used=%d", active, c.Used())
	}
	for _, j := range jobs[:3] {
		if err := s.Release(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if c.Used() != 3 {
		t.Fatalf("used=%d after shrink", c.Used())
	}
}

func TestNegativeLatencyPanics(t *testing.T) {
	e := sim.New()
	c := cluster.New("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	New(e, lrm.New(e, c), Config{SubmitLatency: -1})
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Submitted: "submitted", Pending: "pending", Active: "active", Released: "released", State(7): "state(7)"} {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SubmitLatency <= 0 || cfg.ReleaseLatency <= 0 {
		t.Fatalf("default config not positive: %+v", cfg)
	}
	if cfg.ReleaseLatency >= cfg.SubmitLatency {
		t.Fatal("release should be cheaper than submission (§V-A)")
	}
}

// BenchmarkStubChurn is the Malleable Runner's grow-then-shrink cycle in
// miniature: one site submits 8 size-1 stubs, exactly the gatekeeper's
// concurrency, runs until they are active, releases them all and runs
// until the nodes are back. It reports the engine events each cycle fires
// (events/op), so a change that splits the same-instant stub batches
// again shows up here first.
func BenchmarkStubChurn(b *testing.B) { benchStubChurn(b, 8) }

// BenchmarkStubChurnBacklog is the same cycle with 32 stubs, so the
// gatekeeper's backlog drains one submission per arrival: each arrival
// batch interleaves the LRM start notifications with the next arrivals,
// and both must still batch.
func BenchmarkStubChurnBacklog(b *testing.B) { benchStubChurn(b, 32) }

// benchStubChurn runs the grow-then-shrink cycle with the given number of
// stubs. The world is rebuilt, untimed, every 1024 cycles to keep its job
// slabs small.
func benchStubChurn(b *testing.B, stubs int) {
	const rebuild = 1024
	var (
		e     *sim.Engine
		c     *cluster.Cluster
		mgr   *lrm.Manager
		s     *Service
		fired uint64
	)
	build := func() {
		e = sim.New()
		c = cluster.New("site", 64)
		mgr = lrm.New(e, c)
		s = New(e, mgr, DefaultConfig())
	}
	teardown := func() {
		fired += e.Fired()
		s.Teardown()
		mgr.Teardown()
		e.Teardown()
	}
	jobs := make([]*Job, stubs)
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuild == 0 {
			b.StopTimer()
			teardown()
			build()
			b.StartTimer()
		}
		for k := range jobs {
			j, err := s.Submit(1, nil)
			if err != nil {
				b.Fatal(err)
			}
			jobs[k] = j
		}
		e.Run()
		for _, j := range jobs {
			if j.State() != Active {
				b.Fatalf("stub %s is %v after the submit run", j.ID(), j.State())
			}
			s.Release(j)
		}
		e.Run()
		if c.Used() != 0 {
			b.Fatalf("%d nodes still held after the release run", c.Used())
		}
	}
	b.StopTimer()
	teardown()
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
