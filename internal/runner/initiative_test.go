package runner

import (
	"testing"

	"repro/internal/app"
)

// grantAll is an AppGrowHandler granting up to a fixed budget.
type grantAll struct{ budget int }

func (g *grantAll) AppGrowRequest(site string, amount int) int {
	grant := amount
	if grant > g.budget {
		grant = g.budget
	}
	g.budget -= grant
	return grant
}

func TestAppRequestGrowObtainsProcessors(t *testing.T) {
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), ignore{})
	r.SetAppGrowHandler(&grantAll{budget: 100})
	r.Start()
	h.engine.RunUntil(20)
	got := r.AppRequestGrow(10)
	if got != 10 {
		t.Fatalf("obtained %d, want 10", got)
	}
	h.engine.RunUntil(100)
	if r.Execution().Procs() != 12 {
		t.Fatalf("procs = %d, want 12", r.Execution().Procs())
	}
}

func TestAppRequestGrowSchedulerMayGrantLess(t *testing.T) {
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), ignore{})
	r.SetAppGrowHandler(&grantAll{budget: 3})
	r.Start()
	h.engine.RunUntil(20)
	if got := r.AppRequestGrow(10); got != 3 {
		t.Fatalf("obtained %d, want 3 (scheduler budget)", got)
	}
	if got := r.AppRequestGrow(10); got != 0 {
		t.Fatalf("obtained %d, want 0 (budget exhausted)", got)
	}
}

func TestAppRequestGrowAppliesAppConstraints(t *testing.T) {
	// FT asks for 5 while at 2; scheduler grants 5, but the power-of-two
	// rule means the application adopts only 2 (2→4).
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.FTProfile(), 2, zeroCosts(), ignore{})
	r.SetAppGrowHandler(&grantAll{budget: 100})
	r.Start()
	h.engine.RunUntil(20)
	if got := r.AppRequestGrow(5); got != 2 {
		t.Fatalf("adopted %d, want 2", got)
	}
}

func TestAppRequestGrowWithoutHandlerDeclines(t *testing.T) {
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 2, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(20)
	if got := r.AppRequestGrow(5); got != 0 {
		t.Fatalf("obtained %d without a handler", got)
	}
	if got := r.AppRequestGrow(0); got != 0 {
		t.Fatal("zero request should decline")
	}
}

func TestVoluntaryShrinkAcceptedEarly(t *testing.T) {
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(30) // progress ≈ 25/240 ≈ 10% — early
	if got := r.RequestVoluntaryShrink(10); got != 10 {
		t.Fatalf("released %d, want 10 (early in the run)", got)
	}
	h.engine.RunUntil(60)
	if r.Execution().Procs() != 36 {
		t.Fatalf("procs = %d, want 36", r.Execution().Procs())
	}
}

func TestVoluntaryShrinkDeclinedLate(t *testing.T) {
	h := newHarness(48)
	r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
	r.Start()
	h.engine.RunUntil(200) // progress ≈ 195/240 ≈ 80% — late
	if got := r.RequestVoluntaryShrink(10); got != 0 {
		t.Fatalf("released %d, want 0 (late in the run)", got)
	}
	if r.Execution().Procs() != 46 {
		t.Fatalf("procs = %d, want 46", r.Execution().Procs())
	}
}

// TestDefaultVoluntaryShrinkPolicy pins where the application's answer
// to a voluntary shrink flips: it accepts until half of its execution is
// done and declines from then on.
func TestDefaultVoluntaryShrinkPolicy(t *testing.T) {
	for _, tc := range []struct {
		at   float64
		want int
	}{{120, 4}, {130, 0}} {
		h := newHarness(48)
		r, _ := NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
		r.Start()
		h.engine.RunUntil(tc.at) // started at 5 with T(46)=240: half done at 125
		if got := r.RequestVoluntaryShrink(4); got != tc.want {
			t.Errorf("at %g s released %d, want %d", tc.at, got, tc.want)
		}
	}
}
