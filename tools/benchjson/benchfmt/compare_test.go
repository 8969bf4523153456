package benchfmt

import (
	"strings"
	"testing"
)

func bench(iters int64, ns, allocs float64) Result {
	return Result{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs}
}

func file(benchmarks map[string]Result) File {
	return File{GoVersion: "go-test", Benchmarks: benchmarks}
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldF := file(map[string]Result{
		"BenchmarkHot":  bench(100, 10000, 1000),
		"BenchmarkTiny": bench(100, 40, 2),
		"BenchmarkGone": bench(100, 500, 50),
	})
	newF := file(map[string]Result{
		"BenchmarkHot":  bench(100, 12000, 1200), // +20% on both, well past slack
		"BenchmarkTiny": bench(100, 80, 6),       // +100%, but inside absolute slack
		"BenchmarkNew":  bench(100, 1, 1),
	})
	report, regs := Compare(oldF, newF, 10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %d (%+v), want ns/op + allocs/op of BenchmarkHot", len(regs), regs)
	}
	for _, r := range regs {
		if r.Name != "BenchmarkHot" {
			t.Errorf("unexpected regression: %+v", r)
		}
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"REG BenchmarkHot", "BenchmarkGone", "removed", "BenchmarkNew", "added"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	oldF := file(map[string]Result{"BenchmarkHot": bench(100, 10000, 1000)})
	newF := file(map[string]Result{"BenchmarkHot": bench(100, 10500, 1040)}) // +5%, +4%
	if _, regs := Compare(oldF, newF, 10); len(regs) != 0 {
		t.Fatalf("within-threshold diff flagged: %+v", regs)
	}
	// Improvements never fail, however large.
	better := file(map[string]Result{"BenchmarkHot": bench(100, 2000, 100)})
	if _, regs := Compare(oldF, better, 10); len(regs) != 0 {
		t.Fatalf("improvement flagged: %+v", regs)
	}
}

// TestCompareSkipsTimeOfSingleIterationRuns pins the smoke-run rule:
// a -benchtime=1x run gates allocations only, because one cold
// iteration is not a time measurement.
func TestCompareSkipsTimeOfSingleIterationRuns(t *testing.T) {
	oldF := file(map[string]Result{"BenchmarkHot": bench(100, 10000, 1000)})
	newF := file(map[string]Result{"BenchmarkHot": bench(1, 900000, 1010)}) // 90x slower "time", 1 iteration
	report, regs := Compare(oldF, newF, 10)
	if len(regs) != 0 {
		t.Fatalf("1x-iteration time flagged: %+v", regs)
	}
	if strings.Contains(strings.Join(report, "\n"), "ns/op") {
		t.Fatalf("report compared ns/op of a 1-iteration run:\n%s", strings.Join(report, "\n"))
	}
	// Allocations of the same run still gate.
	newF = file(map[string]Result{"BenchmarkHot": bench(1, 900000, 1500)})
	if _, regs := Compare(oldF, newF, 10); len(regs) != 1 {
		t.Fatalf("1x-iteration alloc regression missed: %+v", regs)
	}
}

// TestCompareColdRunAllocSlack pins the warmup rule: one cold
// iteration may charge a few dozen one-time allocations to a
// zero-alloc benchmark without tripping the gate, but growth beyond
// the cold slack still fails.
func TestCompareColdRunAllocSlack(t *testing.T) {
	oldF := file(map[string]Result{"BenchmarkZeroAlloc": bench(1000, 500, 0)})
	warm := file(map[string]Result{"BenchmarkZeroAlloc": bench(1, 500, 16)})
	if _, regs := Compare(oldF, warm, 10); len(regs) != 0 {
		t.Fatalf("cold-run warmup allocations flagged: %+v", regs)
	}
	bad := file(map[string]Result{"BenchmarkZeroAlloc": bench(1, 500, 64)})
	if _, regs := Compare(oldF, bad, 10); len(regs) != 1 {
		t.Fatalf("cold-run real regression missed: %+v", regs)
	}
	// Steady-state runs keep the strict slack.
	steady := file(map[string]Result{"BenchmarkZeroAlloc": bench(1000, 500, 16)})
	if _, regs := Compare(oldF, steady, 10); len(regs) != 1 {
		t.Fatalf("steady-state regression missed: %+v", regs)
	}
}

func TestCompareZeroBaselineUsesAbsoluteSlack(t *testing.T) {
	oldF := file(map[string]Result{"BenchmarkZero": bench(100, 100, 0)})
	ok := file(map[string]Result{"BenchmarkZero": bench(100, 100, 4)})
	if _, regs := Compare(oldF, ok, 10); len(regs) != 0 {
		t.Fatalf("slack-sized growth over zero baseline flagged: %+v", regs)
	}
	bad := file(map[string]Result{"BenchmarkZero": bench(100, 100, 40)})
	if _, regs := Compare(oldF, bad, 10); len(regs) != 1 {
		t.Fatalf("real growth over zero baseline missed: %+v", regs)
	}
}

// sampled is a median over six runs with the given ns/op quartile spread.
func sampled(ns, spread float64) Result {
	r := bench(100, ns, 1000)
	r.Samples = 6
	r.Spread = map[string]float64{"ns/op": spread}
	return r
}

// TestCompareNsGateRespectsSpread pins the spread-aware ns/op gate: when
// both sides are medians over several runs, a delta must also exceed
// each file's spread × median to count.
func TestCompareNsGateRespectsSpread(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new Result
		flagged  bool
	}{
		{"2x slowdown, 5% spreads", sampled(10000, 0.05), sampled(20000, 0.05), true},
		{"+15% inside a 20% spread", sampled(10000, 0.20), sampled(11500, 0.20), false},
		{"+15% inside the new file's 20% spread", sampled(10000, 0.05), sampled(11500, 0.20), false},
		{"unchanged", sampled(10000, 0.05), sampled(10000, 0.05), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, regs := Compare(file(map[string]Result{"BenchmarkHot": tc.old}),
				file(map[string]Result{"BenchmarkHot": tc.new}), 10)
			// allocs/op is equal on both sides, so only ns/op can regress.
			if flagged := len(regs) == 1; flagged != tc.flagged {
				t.Fatalf("regressions = %+v, want ns/op flagged: %v", regs, tc.flagged)
			}
		})
	}
}

// withMetrics is a 1x smoke result carrying custom metrics.
func withMetrics(metrics map[string]float64) Result {
	r := bench(1, 5000, 10)
	r.Metrics = metrics
	return r
}

// TestCompareGatesCustomPerOpCounts pins the custom-metric rule: a unit
// ending in "/op" is an exact per-operation count, lower is better, and
// gates on the relative threshold alone — in a 1x smoke run too. Other
// custom metrics are recorded, never gated.
func TestCompareGatesCustomPerOpCounts(t *testing.T) {
	oldF := file(map[string]Result{
		"BenchmarkStubChurn": withMetrics(map[string]float64{"events/op": 3}),
		"BenchmarkSweep":     withMetrics(map[string]float64{"speedup": 2, "mean-exec-s": 100}),
	})
	newF := file(map[string]Result{
		"BenchmarkStubChurn": withMetrics(map[string]float64{"events/op": 24}), // the batches split again
		"BenchmarkSweep":     withMetrics(map[string]float64{"speedup": 0.5, "mean-exec-s": 900}),
	})
	report, regs := Compare(oldF, newF, 10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkStubChurn" || regs[0].Metric != "events/op" ||
		regs[0].Old != 3 || regs[0].New != 24 {
		t.Fatalf("regressions = %+v, want only events/op 3 -> 24 of BenchmarkStubChurn", regs)
	}
	if joined := strings.Join(report, "\n"); !strings.Contains(joined, "REG BenchmarkStubChurn") {
		t.Fatalf("report does not flag events/op:\n%s", joined)
	}
	// Unchanged or lower counts pass; so does growth within the threshold.
	for _, v := range []float64{3, 1, 3.2} {
		same := file(map[string]Result{"BenchmarkStubChurn": withMetrics(map[string]float64{"events/op": v})})
		if _, regs := Compare(oldF, same, 10); len(regs) != 0 {
			t.Fatalf("events/op 3 -> %g flagged: %+v", v, regs)
		}
	}
}
