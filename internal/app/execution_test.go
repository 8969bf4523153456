package app

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func constProfile(name string, t2 float64, min, max int) *Profile {
	return &Profile{
		Name:  name,
		Class: Malleable,
		Model: NewTableModel(name+"-m", []TablePoint{{1, t2 * 2}, {2, t2}, {max, t2 * 2 / float64(max)}}),
		Min:   min,
		Max:   max,
	}
}

func TestConstantSizeRunFinishesAtModelTime(t *testing.T) {
	e := sim.New()
	g := GadgetProfile()
	var finishedAt float64 = -1
	new(Execution).Start(e, g, 2, func() { finishedAt = e.Now() })
	e.Run()
	if math.Abs(finishedAt-600) > 1e-6 {
		t.Fatalf("finished at %g, want 600", finishedAt)
	}
}

func TestGrowSpeedsUpCompletion(t *testing.T) {
	e := sim.New()
	g := GadgetProfile()
	var finishedAt float64 = -1
	x := new(Execution)
	x.Start(e, g, 2, func() { finishedAt = e.Now() })
	// At t=300 half the work is done; grow to 46 procs.
	e.RunUntil(300)
	x.SetProcs(46)
	e.Run()
	// Remaining half at T(46)=240 takes 120 s → finish at 420.
	if math.Abs(finishedAt-420) > 1e-6 {
		t.Fatalf("finished at %g, want 420", finishedAt)
	}
}

func TestShrinkSlowsDownCompletion(t *testing.T) {
	e := sim.New()
	g := GadgetProfile()
	var finishedAt float64 = -1
	x := new(Execution)
	x.Start(e, g, 46, func() { finishedAt = e.Now() })
	e.RunUntil(120)
	x.SetProcs(2) // half done at 120
	e.Run()
	if math.Abs(finishedAt-(120+300)) > 1e-6 {
		t.Fatalf("finished at %g, want 420", finishedAt)
	}
}

func TestProgressReporting(t *testing.T) {
	e := sim.New()
	g := GadgetProfile()
	x := new(Execution)
	x.Start(e, g, 2, nil)
	e.RunUntil(150)
	if p := x.Progress(); math.Abs(p-0.25) > 1e-9 {
		t.Errorf("Progress at 150 = %g, want 0.25", p)
	}
	e.Run()
	if !x.Done() || x.Progress() != 1 {
		t.Fatalf("done=%v progress=%g", x.Done(), x.Progress())
	}
}

func TestPauseStopsProgress(t *testing.T) {
	e := sim.New()
	p := constProfile("p", 100, 1, 8)
	var finishedAt float64 = -1
	x := new(Execution)
	x.Start(e, p, 2, func() { finishedAt = e.Now() })
	e.RunUntil(10)
	x.Pause()
	e.RunUntil(40)
	x.Resume()
	e.Run()
	if math.Abs(finishedAt-130) > 1e-6 {
		t.Fatalf("finished at %g, want 130 (100 + 30 pause)", finishedAt)
	}
}

func TestPauseForAutoResumes(t *testing.T) {
	e := sim.New()
	p := constProfile("p", 100, 1, 8)
	var finishedAt float64 = -1
	x := new(Execution)
	x.Start(e, p, 2, func() { finishedAt = e.Now() })
	e.RunUntil(50)
	x.PauseFor(25)
	e.Run()
	if math.Abs(finishedAt-125) > 1e-6 {
		t.Fatalf("finished at %g, want 125", finishedAt)
	}
}

func TestNestedPause(t *testing.T) {
	e := sim.New()
	p := constProfile("p", 100, 1, 8)
	var finishedAt float64 = -1
	x := new(Execution)
	x.Start(e, p, 2, func() { finishedAt = e.Now() })
	e.RunUntil(10)
	x.Pause()
	e.RunUntil(20)
	x.Pause()
	e.RunUntil(30)
	x.Resume() // still paused
	e.RunUntil(50)
	x.Resume() // now resumes
	e.Run()
	if math.Abs(finishedAt-140) > 1e-6 {
		t.Fatalf("finished at %g, want 140", finishedAt)
	}
}

func TestResumeWithoutPausePanics(t *testing.T) {
	e := sim.New()
	x := new(Execution)
	x.Start(e, GadgetProfile(), 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("Resume without Pause did not panic")
		}
	}()
	x.Resume()
}

func TestSetProcsOutOfRangePanics(t *testing.T) {
	e := sim.New()
	x := new(Execution)
	x.Start(e, FTProfile(), 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range SetProcs did not panic")
		}
	}()
	x.SetProcs(64)
}

func TestStartOutOfRangePanics(t *testing.T) {
	e := sim.New()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range start did not panic")
		}
	}()
	new(Execution).Start(e, FTProfile(), 1, nil)
}

func TestHistoryRecordsSteps(t *testing.T) {
	e := sim.New()
	g := GadgetProfile()
	x := new(Execution)
	x.Start(e, g, 2, nil)
	e.RunUntil(100)
	x.SetProcs(10)
	e.Run()
	times, procs := x.History()
	if len(times) != 3 { // start, resize, finish(0)
		t.Fatalf("history has %d entries: %v %v", len(times), times, procs)
	}
	if procs[0] != 2 || procs[1] != 10 || procs[2] != 0 {
		t.Fatalf("history procs = %v", procs)
	}
	if times[1] != 100 {
		t.Fatalf("history times = %v", times)
	}
}

func TestDefaultReconfigCostsPositive(t *testing.T) {
	c := DefaultReconfigCosts()
	if c.RecruitPause <= 0 || c.SafePointDelay <= 0 || c.RedistributePause <= 0 {
		t.Fatalf("non-positive defaults: %+v", c)
	}
}

// Property (work conservation): for any sequence of resize instants, the
// total integrated work Σ rate(p_i)·Δt_i equals 1 at the finish instant.
func TestPropertyWorkConservation(t *testing.T) {
	g := GadgetProfile()
	f := func(resizes []uint8) bool {
		e := sim.New()
		var finishedAt float64 = -1
		x := new(Execution)
		x.Start(e, g, 2, func() { finishedAt = e.Now() })
		tm := 0.0
		for _, r := range resizes {
			tm += float64(r%50) + 1
			e.RunUntil(tm)
			if !x.Done() {
				x.SetProcs(2 + int(r)%(g.Max-1))
			}
		}
		e.Run()
		if finishedAt < 0 {
			return false
		}
		// Re-integrate the recorded history independently.
		times, procs := x.History()
		work := 0.0
		for i := 0; i+1 < len(times); i++ {
			if procs[i] > 0 {
				work += (times[i+1] - times[i]) / g.Model.Time(procs[i])
			}
		}
		return math.Abs(work-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
