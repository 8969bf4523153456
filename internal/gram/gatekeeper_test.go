package gram

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/lrm"
	"repro/internal/sim"
)

func TestGatekeeperSerializesSubmissions(t *testing.T) {
	e := sim.New()
	c := cluster.New("site", 32)
	s := New(e, lrm.New(e, c), Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: 1})
	var activeTimes []float64
	for i := 0; i < 4; i++ {
		s.Submit(1, activeFunc(func(*Job) { activeTimes = append(activeTimes, e.Now()) }))
	}
	if n := len(s.backlog) - s.backlogHead; n != 3 {
		t.Fatalf("backlog = %d, want 3", n)
	}
	e.Run()
	want := []float64{5, 10, 15, 20}
	if len(activeTimes) != 4 {
		t.Fatalf("activations = %v", activeTimes)
	}
	for i, w := range want {
		if activeTimes[i] != w {
			t.Fatalf("activations = %v, want %v", activeTimes, want)
		}
	}
}

func TestGatekeeperConcurrencyTwo(t *testing.T) {
	e := sim.New()
	c := cluster.New("site", 32)
	s := New(e, lrm.New(e, c), Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: 2})
	active := 0
	for i := 0; i < 4; i++ {
		s.Submit(1, activeFunc(func(*Job) { active++ }))
	}
	e.RunUntil(5)
	if active != 2 {
		t.Fatalf("active = %d at t=5, want 2", active)
	}
	e.RunUntil(10)
	if active != 4 {
		t.Fatalf("active = %d at t=10, want 4", active)
	}
}

func TestGatekeeperUnlimitedWhenZero(t *testing.T) {
	e := sim.New()
	c := cluster.New("site", 32)
	s := New(e, lrm.New(e, c), Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: 0})
	active := 0
	for i := 0; i < 10; i++ {
		s.Submit(1, activeFunc(func(*Job) { active++ }))
	}
	e.RunUntil(5)
	if active != 10 {
		t.Fatalf("active = %d at t=5, want all 10", active)
	}
}

func TestReleaseWhileInBacklogNeverSubmits(t *testing.T) {
	e := sim.New()
	c := cluster.New("site", 32)
	s := New(e, lrm.New(e, c), Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: 1})
	s.Submit(1, nil) // occupies the gatekeeper
	victim, _ := s.Submit(1, activeFunc(func(*Job) { t.Error("released backlog job became active") }))
	if err := s.Release(victim); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if victim.State() != Released {
		t.Fatalf("state = %v", victim.State())
	}
	if c.Used() != 1 {
		t.Fatalf("used = %d, want 1 (only the first job)", c.Used())
	}
}

func TestNegativeConcurrencyPanics(t *testing.T) {
	e := sim.New()
	c := cluster.New("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("negative concurrency did not panic")
		}
	}()
	New(e, lrm.New(e, c), Config{SubmitLatency: 1, SubmitConcurrency: -1})
}
