package runner

import (
	"testing"

	"repro/internal/app"
)

func TestVoluntaryShrinkAcceptedEarly(t *testing.T) {
	h := newHarness(48)
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
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
	r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
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
		r, _ := new(Slabs).NewMRunner(h.engine, h.svc, app.GadgetProfile(), 46, zeroCosts(), ignore{})
		r.Start()
		h.engine.RunUntil(tc.at) // started at 5 with T(46)=240: half done at 125
		if got := r.RequestVoluntaryShrink(4); got != tc.want {
			t.Errorf("at %g s released %d, want %d", tc.at, got, tc.want)
		}
	}
}
