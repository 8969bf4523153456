// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation (§VI–VII) as testing.B benchmarks — one per
// table and figure — and reports the headline statistic of each as a custom
// benchmark metric so `go test -bench=.` doubles as a results table.
//
// Absolute numbers need not match the paper (our substrate is a simulator,
// not the authors' DAS-3 testbed); the *shapes* — who wins, by roughly what
// factor — are pinned by the regression tests in internal/experiment.
package repro

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/gram"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchSets caches one PRA and one PWA set so the twelve figure benchmarks
// measure figure *extraction* against a realistic base without re-running
// the four-combination simulation twelve times per -bench invocation.
var (
	setOnce sync.Once
	praSet  *experiment.Set
	pwaSet  *experiment.Set
)

func figureSets(b *testing.B) (*experiment.Set, *experiment.Set) {
	b.Helper()
	setOnce.Do(func() {
		var err error
		praSet, err = experiment.RunSet("PRA", experiment.PRACombos(), experiment.Config{Runs: 1, Seed: 1})
		if err != nil {
			panic(err)
		}
		pwaSet, err = experiment.RunSet("PWA", experiment.PWACombos(), experiment.Config{Runs: 1, Seed: 1})
		if err != nil {
			panic(err)
		}
	})
	return praSet, pwaSet
}

// BenchmarkTable1Testbed regenerates Table I (the DAS-3 node distribution).
func BenchmarkTable1Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6Scaling regenerates Fig. 6 (application runtimes vs machine
// count) and reports the best execution times of both applications.
func BenchmarkFig6Scaling(b *testing.B) {
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig6()
	}
	b.ReportMetric(bestTime(app.FTModel(), 32), "FT-best-s")
	b.ReportMetric(bestTime(app.GadgetModel(), 46), "GADGET-best-s")
	_ = fig
}

// bestTime is the shortest execution time of m on 1 to maxP processors.
func bestTime(m app.RuntimeModel, maxP int) float64 {
	best := m.Time(1)
	for p := 2; p <= maxP; p++ {
		best = min(best, m.Time(p))
	}
	return best
}

// praFigBench benchmarks one Fig. 7 sub-figure extraction and reports the
// headline metric for the EGS/Wm and FPSMA/Wm curves.
func praFigBench(b *testing.B, extract func(*experiment.Set) experiment.Figure,
	metric func(*experiment.Result) float64, unit string) {
	pra, _ := figureSets(b)
	b.ResetTimer()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = extract(pra)
	}
	b.StopTimer()
	if len(fig.Series) != 4 {
		b.Fatalf("figure has %d series, want 4", len(fig.Series))
	}
	b.ReportMetric(metric(pra.Results["EGS/Wm"]), "EGS-"+unit)
	b.ReportMetric(metric(pra.Results["FPSMA/Wm"]), "FPSMA-"+unit)
}

// pwaFigBench is praFigBench for Fig. 8 (W'm curves).
func pwaFigBench(b *testing.B, extract func(*experiment.Set) experiment.Figure,
	metric func(*experiment.Result) float64, unit string) {
	_, pwa := figureSets(b)
	b.ResetTimer()
	var fig experiment.Figure
	for i := 0; i < b.N; i++ {
		fig = extract(pwa)
	}
	b.StopTimer()
	if len(fig.Series) != 4 {
		b.Fatalf("figure has %d series, want 4", len(fig.Series))
	}
	b.ReportMetric(metric(pwa.Results["EGS/W'm"]), "EGS-"+unit)
	b.ReportMetric(metric(pwa.Results["FPSMA/W'm"]), "FPSMA-"+unit)
}

func meanAvgSize(r *experiment.Result) float64 {
	return meanMalleable(r, func(j *metrics.JobRecord) float64 { return j.AvgProcs })
}

func meanMaxSize(r *experiment.Result) float64 {
	return meanMalleable(r, func(j *metrics.JobRecord) float64 { return float64(j.MaxProcs) })
}

// meanMalleable averages one field over the result's malleable jobs,
// reading Pooled in place.
func meanMalleable(r *experiment.Result, field func(*metrics.JobRecord) float64) float64 {
	sum, n := 0.0, 0
	for i := range r.Pooled {
		if j := &r.Pooled[i]; j.Malleable {
			sum += field(j)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFig7aAvgSizePRA — CDF of per-job average processor counts.
func BenchmarkFig7aAvgSizePRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigSizesAvg("7a") },
		meanAvgSize, "mean-avg-procs")
}

// BenchmarkFig7bMaxSizePRA — CDF of per-job maximum processor counts.
func BenchmarkFig7bMaxSizePRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigSizesMax("7b") },
		meanMaxSize, "mean-max-procs")
}

// BenchmarkFig7cExecTimePRA — CDF of execution times.
func BenchmarkFig7cExecTimePRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigExecTimes("7c") },
		(*experiment.Result).MeanExecution, "mean-exec-s")
}

// BenchmarkFig7dRespTimePRA — CDF of response times.
func BenchmarkFig7dRespTimePRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigResponseTimes("7d") },
		(*experiment.Result).MeanResponse, "mean-resp-s")
}

// BenchmarkFig7eUtilizationPRA — platform utilisation over time.
func BenchmarkFig7eUtilizationPRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigUtilization("7e", 0, 40000, 500) },
		(*experiment.Result).MeanUtilization, "mean-util-procs")
}

// BenchmarkFig7fGrowMsgsPRA — cumulative grow messages over time.
func BenchmarkFig7fGrowMsgsPRA(b *testing.B) {
	praFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigOps("7f", 0, 40000, 500) },
		(*experiment.Result).TotalOps, "ops")
}

// BenchmarkFig8aAvgSizePWA — CDF of per-job average processor counts (PWA).
func BenchmarkFig8aAvgSizePWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigSizesAvg("8a") },
		meanAvgSize, "mean-avg-procs")
}

// BenchmarkFig8bMaxSizePWA — CDF of per-job maximum processor counts (PWA).
func BenchmarkFig8bMaxSizePWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigSizesMax("8b") },
		meanMaxSize, "mean-max-procs")
}

// BenchmarkFig8cExecTimePWA — CDF of execution times (PWA).
func BenchmarkFig8cExecTimePWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigExecTimes("8c") },
		(*experiment.Result).MeanExecution, "mean-exec-s")
}

// BenchmarkFig8dRespTimePWA — CDF of response times (PWA).
func BenchmarkFig8dRespTimePWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigResponseTimes("8d") },
		(*experiment.Result).MeanResponse, "mean-resp-s")
}

// BenchmarkFig8eUtilizationPWA — platform utilisation over time (PWA).
func BenchmarkFig8eUtilizationPWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigUtilization("8e", 0, 12000, 200) },
		(*experiment.Result).MeanUtilization, "mean-util-procs")
}

// BenchmarkFig8fOpsPWA — cumulative malleability operations (PWA).
func BenchmarkFig8fOpsPWA(b *testing.B) {
	pwaFigBench(b, func(s *experiment.Set) experiment.Figure { return s.FigOps("8f", 0, 12000, 200) },
		(*experiment.Result).TotalOps, "ops")
}

// BenchmarkSweepParallelSpeedup measures the full Fig. 7 sweep (four PRA
// combinations × four seeded replications each) executed serially and on
// the bounded worker pool, and reports the wall-clock speedup as a custom
// metric. On a 1-CPU machine the two are equivalent (speedup ≈ 1); with 4+
// cores the pool should report ≥ 2×. The determinism tests in
// internal/experiment pin that both modes produce identical results.
func BenchmarkSweepParallelSpeedup(b *testing.B) {
	runSweep := func(parallelism int) time.Duration {
		base := experiment.Config{Runs: 4, Seed: 1, Parallelism: parallelism}
		start := time.Now()
		set, err := experiment.RunSet("PRA", experiment.PRACombos(), base)
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		if len(set.Labels) != 4 {
			b.Fatalf("sweep produced %d combos, want 4", len(set.Labels))
		}
		return elapsed
	}
	var serial, pooled time.Duration
	for i := 0; i < b.N; i++ {
		serial += runSweep(1)
		pooled += runSweep(0)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(serial.Seconds()/pooled.Seconds(), "speedup")
}

// BenchmarkEndToEndPRARun measures one complete full-scale PRA simulation
// (300 jobs on DAS-3) — the cost of regenerating one Fig. 7 curve. One
// untimed replication first fills the pools a torn-down world leaves its
// memory in, so even a single timed iteration measures the steady state.
func BenchmarkEndToEndPRARun(b *testing.B) {
	run := func(seed uint64) {
		prep, err := experiment.Prepare(experiment.Config{
			Workload: workload.Wm(1),
			Policy:   "EGS",
			Approach: "PRA",
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := prep.RunOnce(seed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != 300 {
			b.Fatalf("records = %d", len(res.Records))
		}
	}
	run(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i + 1))
	}
}

// BenchmarkEndToEndPRABatched is BenchmarkEndToEndPRARun through the
// shared-setup path: one Prepare amortized over all replications, the way
// Run/RunStream execute a sweep point. The delta against the single-shot
// benchmark is the per-replication setup cost batching eliminates.
func BenchmarkEndToEndPRABatched(b *testing.B) {
	prep, err := experiment.Prepare(experiment.Config{
		Workload: workload.Wm(1),
		Policy:   "EGS",
		Approach: "PRA",
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(seed uint64) {
		res, err := prep.RunOnce(seed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != 300 {
			b.Fatalf("records = %d", len(res.Records))
		}
	}
	run(1) // fill the pools, as in BenchmarkEndToEndPRARun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i + 1))
	}
}

// warmLoop runs b.N timed calls of run after one untimed call that fills
// the pools a torn-down world leaves its memory in, as the end-to-end
// benchmarks do, so even a single timed iteration measures the steady
// state. It returns the last call's result.
func warmLoop(b *testing.B, run func() float64) float64 {
	last := run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = run()
	}
	return last
}

// runOnce is one seeded replication of cfg, failing the benchmark on error.
func runOnce(b *testing.B, cfg experiment.Config) []metrics.JobRecord {
	prep, err := experiment.Prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := prep.RunOnce(1)
	if err != nil {
		b.Fatal(err)
	}
	return res.Records
}

// BenchmarkAblationPolicies compares all four malleability policies
// (FPSMA, EGS and the §III baselines Equipartition and Folding) on Wm and
// reports mean execution times.
func BenchmarkAblationPolicies(b *testing.B) {
	for _, policy := range []string{"FPSMA", "EGS", "EQUI", "FOLD"} {
		b.Run(policy, func(b *testing.B) {
			cfg := experiment.Config{Workload: workload.Wm(1), Policy: policy, Approach: "PRA"}
			b.ReportMetric(warmLoop(b, func() float64 {
				return stats.Mean(metrics.ExecTimesOf(runOnce(b, cfg)))
			}), "mean-exec-s")
		})
	}
}

// BenchmarkAblationPlacement compares KOALA's four placement policies on
// the mixed workload Wmr and reports mean response times.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, placement := range []string{"WF", "CF", "CM", "FCM"} {
		b.Run(placement, func(b *testing.B) {
			cfg := experiment.Config{Workload: workload.Wmr(1), Policy: "FPSMA", Approach: "PRA", Placement: placement}
			b.ReportMetric(warmLoop(b, func() float64 {
				return stats.Mean(metrics.ResponseTimesOf(runOnce(b, cfg)))
			}), "mean-resp-s")
		})
	}
}

// BenchmarkAblationGramGatekeeper sweeps the GRAM gatekeeper concurrency —
// the knob behind §V-A's "poor reactivity" — and reports mean average job
// sizes.
func BenchmarkAblationGramGatekeeper(b *testing.B) {
	for _, conc := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "serial", 4: "conc4", 16: "conc16"}[conc], func(b *testing.B) {
			g := gram.Config{SubmitLatency: 5, ReleaseLatency: 0.5, SubmitConcurrency: conc}
			cfg := experiment.Config{Workload: workload.Wm(1), Policy: "EGS", Approach: "PRA", GramOverride: &g}
			b.ReportMetric(warmLoop(b, func() float64 {
				recs := runOnce(b, cfg)
				avg := make([]float64, 0, len(recs))
				for _, r := range recs {
					if r.Malleable {
						avg = append(avg, r.AvgProcs)
					}
				}
				return stats.Mean(avg)
			}), "mean-avg-procs")
		})
	}
}

// BenchmarkAblationMalleabilityOff compares malleable scheduling against
// plain KOALA (everything stays at its submitted size) on the same
// workload — the headline "malleability is beneficial" comparison.
func BenchmarkAblationMalleabilityOff(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "malleable"
		if !on {
			name = "rigid-baseline"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiment.Config{Workload: workload.Wm(1), Policy: "FPSMA", Approach: "PRA", DisableMalleability: !on}
			b.ReportMetric(warmLoop(b, func() float64 {
				return stats.Mean(metrics.ExecTimesOf(runOnce(b, cfg)))
			}), "mean-exec-s")
		})
	}
}
