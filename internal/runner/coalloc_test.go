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

func coHarness(nodesPerSite ...int) (*sim.Engine, []*cluster.Cluster, []*gram.Service) {
	e := sim.New()
	var clusters []*cluster.Cluster
	var svcs []*gram.Service
	for i, n := range nodesPerSite {
		c := cluster.New(string(rune('A'+i)), n)
		clusters = append(clusters, c)
		svcs = append(svcs, gram.New(e, lrm.New(e, c), gram.Config{SubmitLatency: 2, ReleaseLatency: 0.5}))
	}
	return e, clusters, svcs
}

func TestCoRunnerSpansComponents(t *testing.T) {
	e, clusters, svcs := coHarness(16, 16)
	prof := app.RigidProfile("co", app.GadgetModel(), 8)
	lc := &lifecycle{engine: e}
	r, err := NewRigidRunner(e, []Component{
		{Svc: svcs[0], Profile: prof, Size: 8},
		{Svc: svcs[1], Profile: prof, Size: 8},
	}, lc)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSize() != 16 {
		t.Fatalf("total = %d", r.TotalSize())
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(10)
	if !r.Running() || r.Nodes() != 16 {
		t.Fatalf("running=%v nodes=%d", r.Running(), r.Nodes())
	}
	if clusters[0].Used() != 8 || clusters[1].Used() != 8 {
		t.Fatal("components not spread over both clusters")
	}
	e.Run()
	// Execution runs at the *total* size: T(16)=280 for GADGET.
	if lc.startAt != 2 || math.Abs(lc.finishAt-(2+280)) > 1e-6 {
		t.Fatalf("start=%g finish=%g", lc.startAt, lc.finishAt)
	}
	if clusters[0].Used() != 0 || clusters[1].Used() != 0 {
		t.Fatal("nodes not released")
	}
	if !r.Finished() {
		t.Fatal("not finished")
	}
}

func TestCoRunnerWaitsForAllComponents(t *testing.T) {
	// The second site's component queues behind a blocker: execution must
	// not begin until every component is active.
	e, clusters, svcs := coHarness(16, 8)
	blocker, _ := svcs[1].Submit(8, nil)
	e.RunUntil(5)
	lc := &lifecycle{engine: e}
	r, _ := NewRigidRunner(e, []Component{
		{Svc: svcs[0], Profile: app.RigidProfile("co", app.FTModel(), 4), Size: 4},
		{Svc: svcs[1], Profile: app.RigidProfile("co", app.FTModel(), 8), Size: 8},
	}, lc)
	r.Start()
	e.RunUntil(50)
	if lc.started {
		t.Fatal("execution began before all components were active")
	}
	svcs[1].Release(blocker)
	e.RunUntil(100)
	if !lc.started {
		t.Fatal("execution did not begin after the blocker left")
	}
	_ = clusters
}

func TestCoRunnerValidation(t *testing.T) {
	e, _, svcs := coHarness(8)
	if _, err := NewRigidRunner(e, []Component{{Svc: svcs[0], Profile: app.GadgetProfile(), Size: 2}}, ignore{}); err == nil {
		t.Fatal("malleable profile should be rejected")
	}
	prof := app.RigidProfile("r", app.FTModel(), 4)
	if _, err := NewRigidRunner(e, nil, ignore{}); err == nil {
		t.Fatal("empty components should be rejected")
	}
	if _, err := NewRigidRunner(e, []Component{{Svc: nil, Profile: prof, Size: 4}}, ignore{}); err == nil {
		t.Fatal("nil service should be rejected")
	}
	if _, err := NewRigidRunner(e, []Component{{Svc: svcs[0], Profile: prof, Size: 0}}, ignore{}); err == nil {
		t.Fatal("zero size should be rejected")
	}
	r, _ := NewRigidRunner(e, []Component{{Svc: svcs[0], Profile: prof, Size: 4}}, ignore{})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("double start should fail")
	}
}
