package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/runner"
)

func system(nodes int) (*core.System, *Collector) {
	sys := core.NewSystem(core.SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", nodes)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:        koala.WorstFit{},
			PollInterval:  5,
			MRunnerConfig: runner.MRunnerConfig{Costs: app.ReconfigCosts{}},
		},
		DisableManager: true,
	})
	col := NewCollector(sys.Engine, sys.Scheduler, sys.Grid, 5)
	return sys, col
}

func TestCollectorRecordsRigidJob(t *testing.T) {
	sys, col := system(16)
	sys.Scheduler.Submit(koala.JobSpec{ID: "r", Profile: app.RigidProfile("r", app.FTModel(), 2), Size: 2})
	sys.Engine.RunUntil(500)
	recs := col.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.ID != "r" || r.Malleable || r.Site != "A" {
		t.Fatalf("record = %+v", r)
	}
	if math.Abs(r.ExecutionTime-120) > 1e-6 {
		t.Fatalf("exec = %g, want 120", r.ExecutionTime)
	}
	if math.Abs(r.ResponseTime-121) > 1e-6 { // + 1 s GRAM submit
		t.Fatalf("response = %g", r.ResponseTime)
	}
	if r.AvgProcs != 2 || r.MaxProcs != 2 || r.InitProcs != 2 {
		t.Fatalf("procs: %+v", r)
	}
	sys.Scheduler.Stop()
	col.Stop()
}

func TestCollectorTracksMalleableSizes(t *testing.T) {
	sys, col := system(64)
	j, _ := sys.Scheduler.Submit(koala.JobSpec{ID: "m", Profile: app.GadgetProfile(), Size: 2})
	// Grow at half time: avg should land strictly between 2 and 46.
	sys.Engine.RunUntil(301)
	j.RequestGrow(44)
	sys.Engine.RunUntil(2000)
	recs := col.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.MaxProcs != 46 {
		t.Fatalf("max = %d, want 46", r.MaxProcs)
	}
	if r.AvgProcs <= 2 || r.AvgProcs >= 46 {
		t.Fatalf("avg = %g, want in (2,46)", r.AvgProcs)
	}
	if !r.Malleable || r.App != "GADGET2" {
		t.Fatalf("record = %+v", r)
	}
	sys.Scheduler.Stop()
	col.Stop()
}

func TestUtilizationSeries(t *testing.T) {
	sys, col := system(16)
	col.KeepUtilization(150)
	sys.Scheduler.Submit(koala.JobSpec{ID: "r", Profile: app.RigidProfile("r", app.GadgetModel(), 8), Size: 8})
	sys.Engine.RunUntil(700)
	u := col.Utilization()
	if u.MaxValue() != 8 {
		t.Fatalf("peak utilisation = %g, want 8", u.MaxValue())
	}
	if u.At(300) != 8 {
		t.Fatalf("mid-run utilisation = %g", u.At(300))
	}
	if u.At(699) != 0 {
		t.Fatalf("post-run utilisation = %g", u.At(699))
	}
	if got, want := col.MeanUtilization(), u.MeanOver(0, col.Makespan()); got != want || got == 0 {
		t.Fatalf("folded mean = %v, series mean %v", got, want)
	}
	sys.Scheduler.Stop()
	col.Stop()
}

func TestRejectedJobsTracked(t *testing.T) {
	sys := core.NewSystem(core.SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", 4)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:            koala.WorstFit{},
			PollInterval:      5,
			MaxPlacementTries: 2,
			MRunnerConfig:     runner.MRunnerConfig{Costs: app.ReconfigCosts{}},
		},
		DisableManager: true,
	})
	col := NewCollector(sys.Engine, sys.Scheduler, sys.Grid, 5)
	sys.Scheduler.Submit(koala.JobSpec{ID: "long", Profile: app.GadgetProfile(), Size: 2})
	sys.Scheduler.Submit(koala.JobSpec{ID: "doomed", Profile: app.RigidProfile("doomed", app.FTModel(), 4), Size: 4})
	sys.Engine.RunUntil(100)
	if len(col.Rejected()) != 1 || col.Rejected()[0] != "doomed" {
		t.Fatalf("rejected = %v", col.Rejected())
	}
	sys.Scheduler.Stop()
	col.Stop()
}

func TestFieldSelectors(t *testing.T) {
	recs := []JobRecord{
		{ID: "a", App: "FT", Malleable: true, AvgProcs: 4, MaxProcs: 8, ExecutionTime: 100, ResponseTime: 150},
		{ID: "b", App: "GADGET2", Malleable: false, AvgProcs: 2, MaxProcs: 2, ExecutionTime: 600, ResponseTime: 700},
	}
	if got := ExecTimesOf(recs); got[1] != 600 {
		t.Fatalf("ExecTimesOf = %v", got)
	}
	if got := ResponseTimesOf(recs); got[1] != 700 {
		t.Fatalf("ResponseTimesOf = %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	recs := []JobRecord{{ID: "a", App: "FT", Site: "A", AvgProcs: 2.5, MaxProcs: 4}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,app,malleable") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "2.500") || !strings.Contains(lines[1], ",4,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestAvgProcsIntegratesPauses(t *testing.T) {
	// A malleable job with reconfiguration pauses: processors stay held
	// during a pause, so AvgProcs must not dip towards zero.
	sys := core.NewSystem(core.SystemConfig{
		Grid: cluster.NewMulticluster(cluster.New("A", 64)),
		Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
		Scheduler: koala.Config{
			Policy:        koala.WorstFit{},
			PollInterval:  5,
			MRunnerConfig: runner.MRunnerConfig{Costs: app.DefaultReconfigCosts()},
		},
		DisableManager: true,
	})
	col := NewCollector(sys.Engine, sys.Scheduler, sys.Grid, 5)
	j, _ := sys.Scheduler.Submit(koala.JobSpec{ID: "m", Profile: app.GadgetProfile(), Size: 2})
	sys.Engine.RunUntil(10)
	j.RequestGrow(44)
	sys.Engine.RunUntil(2000)
	recs := col.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].AvgProcs < 40 {
		t.Fatalf("avg = %g, want ≈46 (grown almost immediately)", recs[0].AvgProcs)
	}
	sys.Scheduler.Stop()
	col.Stop()
}
