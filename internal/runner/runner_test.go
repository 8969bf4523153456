package runner

import (
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/lrm"
	"repro/internal/sim"
)

type harness struct {
	engine *sim.Engine
	clus   *cluster.Cluster
	svc    *gram.Service
}

func newHarness(nodes int) *harness {
	e := sim.New()
	c := cluster.New("site", nodes)
	return &harness{engine: e, clus: c, svc: gram.New(e, lrm.New(e, c), gram.Config{SubmitLatency: 5, ReleaseLatency: 0.5})}
}

// lifecycle records a runner's start and finish notifications.
type lifecycle struct {
	engine            *sim.Engine
	started, finished bool
	startAt, finishAt float64
}

func (l *lifecycle) JobStarted()  { l.started, l.startAt = true, l.engine.Now() }
func (l *lifecycle) JobFinished() { l.finished, l.finishAt = true, l.engine.Now() }

// ignore is the Lifecycle of tests that do not watch start and finish.
type ignore struct{}

func (ignore) JobStarted()  {}
func (ignore) JobFinished() {}

func zeroCosts() MRunnerConfig {
	return MRunnerConfig{Costs: app.ReconfigCosts{}, AcquireTimeout: 0}
}

func TestMRunnerLifecycle(t *testing.T) {
	h := newHarness(48)
	lc := &lifecycle{engine: h.engine}
	r, err := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), lc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	h.engine.Run()
	if !lc.started || !lc.finished {
		t.Fatalf("started=%v finished=%v", lc.started, lc.finished)
	}
	// Submission latency 5, then T(2)=600.
	if lc.startAt != 5 || math.Abs(lc.finishAt-605) > 1e-6 {
		t.Fatalf("startAt=%g finishAt=%g", lc.startAt, lc.finishAt)
	}
	// Nodes drain after GRAM release latency.
	if h.clus.Used() != 0 {
		t.Fatalf("used=%d at the end", h.clus.Used())
	}
	if !r.finished || r.running || r.Nodes() != 0 {
		t.Fatalf("final state: finished=%v running=%v nodes=%d", r.finished, r.running, r.Nodes())
	}
}

func TestMRunnerGrow(t *testing.T) {
	h := newHarness(48)
	lc := &lifecycle{engine: h.engine}
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), lc)
	r.Start()
	// At t=305 (300 s of execution → half done) offer 44 more processors.
	h.engine.RunUntil(305)
	accepted := r.RequestGrow(44)
	h.engine.Run()
	if accepted != 44 {
		t.Fatalf("accepted %d, want 44", accepted)
	}
	// Stub submission takes 5 s (overlapped), so the rate switches at 310:
	// progress 305/600 at old rate... execution started at t=5, so by t=310
	// progress is 305/600. Remaining 295/600 at T(46)=240 → 118 s → 428.
	want := 310 + (1-305.0/600)*240
	if math.Abs(lc.finishAt-want) > 1e-6 {
		t.Fatalf("finishAt = %g, want %g", lc.finishAt, want)
	}
}

func TestMRunnerGrowRespectsFTPow2(t *testing.T) {
	h := newHarness(48)
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.FTProfile(), 2, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(20)
	if got := r.RequestGrow(5); got != 2 { // 2+5=7 → FT accepts 2 (→4)
		t.Fatalf("accepted %d, want 2", got)
	}
	h.engine.RunUntil(40)
	if r.Execution().Procs() != 4 {
		t.Fatalf("procs = %d, want 4", r.Execution().Procs())
	}
}

func TestMRunnerShrink(t *testing.T) {
	h := newHarness(48)
	lc := &lifecycle{engine: h.engine}
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), lc)
	r.Start()
	// Execution starts at t=5 with T(46)=240. At t=125 progress is 0.5.
	h.engine.RunUntil(125)
	released := r.RequestShrink(44)
	h.engine.Run()
	if released != 44 {
		t.Fatalf("released %d, want 44", released)
	}
	// Remaining half at T(2)=600 → 300 s → finish at 425.
	if math.Abs(lc.finishAt-425) > 1e-6 {
		t.Fatalf("finishAt = %g, want 425", lc.finishAt)
	}
	// The released nodes return to the pool (after GRAM release latency).
	h2 := h.clus.Used()
	if h2 != 0 {
		t.Fatalf("used = %d at end", h2)
	}
}

func TestMRunnerShrinkFreesNodesDuringRun(t *testing.T) {
	h := newHarness(48)
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(100)
	r.RequestShrink(20)
	h.engine.RunUntil(110)
	if used := h.clus.Used(); used != 26 {
		t.Fatalf("used = %d mid-run, want 26", used)
	}
	if r.Nodes() != 26 {
		t.Fatalf("runner holds %d stubs, want 26", r.Nodes())
	}
}

func TestMRunnerGrowShrinkSequence(t *testing.T) {
	h := newHarness(48)
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(50)
	r.RequestGrow(10)
	h.engine.RunUntil(100)
	r.RequestShrink(5)
	h.engine.RunUntil(150)
	if r.Execution().Procs() != 7 || r.PlannedProcs() != 7 {
		t.Fatalf("procs = %d, planned = %d; want 7 and 7", r.Execution().Procs(), r.PlannedProcs())
	}
}

func TestMRunnerReconfigCostsDelayCompletion(t *testing.T) {
	costsCfg := MRunnerConfig{Costs: app.ReconfigCosts{RecruitPause: 10}, AcquireTimeout: 0}
	base := func(cfg MRunnerConfig) float64 {
		h := newHarness(48)
		lc := &lifecycle{engine: h.engine}
		r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, cfg, lc)
		r.Start()
		h.engine.RunUntil(50)
		r.RequestGrow(44)
		h.engine.Run()
		return lc.finishAt
	}
	free := base(zeroCosts())
	costly := base(costsCfg)
	if costly <= free {
		t.Fatalf("recruit pause did not delay completion: %g vs %g", costly, free)
	}
	if math.Abs((costly-free)-10) > 1e-6 {
		t.Fatalf("delay = %g, want 10", costly-free)
	}
}

func TestMRunnerGrowAfterFinishAcksZero(t *testing.T) {
	h := newHarness(48)
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(1000) // long finished
	scheduled := h.engine.Scheduled()
	if got := r.RequestGrow(10); got != 0 {
		t.Fatalf("accepted %d after finish, want 0", got)
	}
	h.engine.Run()
	if n := h.engine.Scheduled() - scheduled; n != 0 || h.clus.Used() != 0 {
		t.Fatalf("the grow after finish scheduled %d events, used %d; want 0 and 0", n, h.clus.Used())
	}
}

func TestMRunnerValidation(t *testing.T) {
	h := newHarness(8)
	if _, err := new(Slabs).NewMRunner(h.engine, h.svc, app.RigidProfile("r", app.FTModel(), 2), 2, zeroCosts(), ignore{}); err == nil {
		t.Fatal("rigid profile should be rejected")
	}
	if _, err := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 1, zeroCosts(), ignore{}); err == nil {
		t.Fatal("size below min should be rejected")
	}
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), ignore{})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("double start should fail")
	}
}

func TestMRunnerAcquireTimeoutAbandonsPendingStubs(t *testing.T) {
	// Cluster of 4: the app starts at 2; a grow of 2 more can only get 2…
	// but background seizes them first so stubs stay pending. With a
	// timeout the grow completes with 0 held and the pending stubs are
	// abandoned (voluntary shrink) and the plan falls back to 2.
	h := newHarness(4)
	cfg := MRunnerConfig{Costs: app.ReconfigCosts{}, AcquireTimeout: 30}
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, cfg, ignore{})
	r.Start()
	h.engine.RunUntil(10)
	h.clus.SeizeBackground(2)
	h.engine.RunUntil(20)
	if got := r.RequestGrow(2); got != 2 {
		t.Fatalf("accepted %d, want 2", got)
	}
	h.engine.RunUntil(120)
	if r.Execution().Procs() != 2 || r.PlannedProcs() != 2 || r.Nodes() != 2 {
		t.Fatalf("procs = %d, planned = %d, nodes = %d; want 2, 2, 2", r.Execution().Procs(), r.PlannedProcs(), r.Nodes())
	}
	// The two abandoned stubs were released while pending: once the
	// local users leave, they never take the nodes.
	h.clus.ReleaseBackground(2)
	h.engine.RunUntil(300)
	if used := h.clus.Used(); used != 2 {
		t.Fatalf("used = %d after the local users left, want 2 (abandoned stubs released)", used)
	}
}

func TestRigidRunnerLifecycle(t *testing.T) {
	h := newHarness(8)
	lc := &lifecycle{engine: h.engine}
	prof := app.RigidProfile("FT-rigid", app.FTModel(), 2)
	r, err := NewRigidRunner(h.engine, h.svc, prof, 2, lc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	h.engine.Run()
	if lc.startAt != 5 {
		t.Fatalf("startAt = %g", lc.startAt)
	}
	if math.Abs(lc.finishAt-125) > 1e-6 { // 5 + T(2)=120
		t.Fatalf("finishAt = %g, want 125", lc.finishAt)
	}
	if h.clus.Used() != 0 || !lc.finished || !r.Execution().Done() {
		t.Fatalf("used=%d finished=%v done=%v", h.clus.Used(), lc.finished, r.Execution().Done())
	}
}

func TestRigidRunnerValidation(t *testing.T) {
	h := newHarness(8)
	if _, err := NewRigidRunner(h.engine, h.svc, app.GadgetProfile(), 4, ignore{}); err == nil {
		t.Fatal("malleable profile should be rejected")
	}
	prof := &app.Profile{Name: "m", Class: app.Moldable, Model: app.FTModel(), Min: 2, Max: 8}
	if _, err := NewRigidRunner(h.engine, nil, prof, 4, ignore{}); err == nil {
		t.Fatal("nil service should be rejected")
	}
	if _, err := NewRigidRunner(h.engine, h.svc, nil, 4, ignore{}); err == nil {
		t.Fatal("nil profile should be rejected")
	}
	if _, err := NewRigidRunner(h.engine, h.svc, prof, 16, ignore{}); err == nil {
		t.Fatal("size beyond max should be rejected")
	}
	if _, err := NewRigidRunner(h.engine, h.svc, prof, 0, ignore{}); err == nil {
		t.Fatal("zero size should be rejected")
	}
	r, _ := NewRigidRunner(h.engine, h.svc, prof, 4, ignore{})
	if r.Nodes() != 0 {
		t.Fatal("nodes before start should be 0")
	}
	r.Start()
	if err := r.Start(); err == nil {
		t.Fatal("double start should fail")
	}
	h.engine.RunUntil(10)
	if r.Nodes() != 4 || r.Execution() == nil {
		t.Fatalf("nodes=%d execution=%v", r.Nodes(), r.Execution())
	}
}

func TestDefaultMRunnerConfig(t *testing.T) {
	cfg := DefaultMRunnerConfig()
	if cfg.AcquireTimeout <= 0 || cfg.Costs.RecruitPause <= 0 {
		t.Fatalf("defaults not positive: %+v", cfg)
	}
}
