package experiment

import (
	"context"
	"testing"

	"repro/internal/parallel"
	"repro/internal/workload"
)

// TestOnlyPlottedRunsKeepTheirSeries pins which runs keep their sampled
// utilisation series: a batch's Runs[0], which FigUtilization plots, and
// neither its other runs nor any streamed replication. Every run reports
// the folded mean instead, and it must equal the series mean of the same
// seed's RunOnce bit for bit, in a batch and in a streamed point.
func TestOnlyPlottedRunsKeepTheirSeries(t *testing.T) {
	pwaBackground := PWABackground()
	for _, cfg := range []Config{
		{Workload: workload.Wm(1), Policy: "EGS", Approach: "PRA", Runs: 3, Seed: 3},
		{Workload: workload.WmPrime(1), Policy: "FPSMA", Approach: "PWA", Background: &pwaBackground, Runs: 3, Seed: 3},
	} {
		batch, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range batch.Runs {
			if kept := run.Utilization != nil; kept != (i == 0) {
				t.Errorf("%s: batch run %d keeps its series: %v", batch.Config.Name, i, kept)
			}
		}
		// The streaming path's replication loop: runPoint with no pooled
		// records, as runStream calls it.
		prep, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runPoint(context.Background(), prep, parallel.NewLimiter(2), nil, nil, func(i int, r *RunResult) bool {
			if r.Utilization != nil {
				t.Errorf("%s: streamed replication %d keeps its series", batch.Config.Name, i)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		stream, err := RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}

		sum := 0.0
		for i, run := range batch.Runs {
			once, err := prep.RunOnce(run.Seed)
			if err != nil {
				t.Fatal(err)
			}
			want := once.Utilization.MeanOver(0, once.Makespan)
			if once.MeanUtilization != want || run.MeanUtilization != want || stream.Replications[i].MeanUtilization != want {
				t.Errorf("%s run %d: mean utilisation RunOnce %v, batch %v, stream %v; series mean %v", batch.Config.Name, i,
					once.MeanUtilization, run.MeanUtilization, stream.Replications[i].MeanUtilization, want)
			}
			sum += want
		}
		want := sum / float64(len(batch.Runs))
		if got := batch.MeanUtilization(); got != want {
			t.Errorf("%s: Result.MeanUtilization %v, want %v", batch.Config.Name, got, want)
		}
		if got := stream.Summary().MeanUtilization; got != want {
			t.Errorf("%s: StreamSummary mean utilisation %v, want %v", batch.Config.Name, got, want)
		}
	}
}
