package benchfmt

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestParseRepeatedLinesKeepsMedians pins -count=N handling: repeated
// lines of one benchmark are folded into per-metric medians with their
// sample count and quartile spread, instead of the last line
// overwriting the others.
func TestParseRepeatedLinesKeepsMedians(t *testing.T) {
	suffix := fmt.Sprintf("-%d", runtime.GOMAXPROCS(0))
	ns := []float64{500, 100, 300, 200, 600, 400}
	var b strings.Builder
	b.WriteString("pkg: repro/internal/sim\n")
	for i, v := range ns {
		fmt.Fprintf(&b, "BenchmarkEngine%s \t %d\t %.0f ns/op\t 64 B/op\t 2 allocs/op\t %d events\n",
			suffix, 1000+i, v, 10+i)
	}
	b.WriteString("BenchmarkOnce" + suffix + " \t 7\t 9 ns/op\n")
	f, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := f.Benchmarks["BenchmarkEngine"]
	if !ok {
		t.Fatalf("benchmarks = %v, want BenchmarkEngine", f.Benchmarks)
	}
	if r.Samples != 6 || r.NsPerOp != 350 || r.Iterations != 1002 || r.BytesPerOp != 64 || r.AllocsPerOp != 2 {
		t.Errorf("got samples %d, ns/op %v, iterations %d, B/op %v, allocs/op %v; want 6, 350, 1002, 64, 2",
			r.Samples, r.NsPerOp, r.Iterations, r.BytesPerOp, r.AllocsPerOp)
	}
	if got := r.Metrics["events"]; got != 12.5 {
		t.Errorf("events median = %v, want 12.5", got)
	}
	// Halves {100,200,300} and {400,500,600}: (500-200)/350.
	if got, want := r.Spread["ns/op"], 300.0/350; math.Abs(got-want) > 1e-12 {
		t.Errorf("ns/op spread = %v, want %v", got, want)
	}
	if _, ok := r.Spread["B/op"]; ok {
		t.Error("B/op did not vary but has a spread")
	}
	once := f.Benchmarks["BenchmarkOnce"]
	if once.Samples != 0 || once.Spread != nil || once.NsPerOp != 9 {
		t.Errorf("single-line benchmark = %+v, want the line as is", once)
	}
}

// TestParseQualifiesNamesAcrossPackages pins that one name in two
// packages is kept twice, qualified, while repeats within a package fold.
func TestParseQualifiesNamesAcrossPackages(t *testing.T) {
	in := "pkg: a\nBenchmarkX 10 5 ns/op\nBenchmarkX 10 7 ns/op\npkg: b\nBenchmarkX 10 9 ns/op\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 || f.Benchmarks["a:BenchmarkX"].NsPerOp != 6 || f.Benchmarks["b:BenchmarkX"].NsPerOp != 9 {
		t.Errorf("benchmarks = %+v, want a:BenchmarkX at 6 ns/op and b:BenchmarkX at 9", f.Benchmarks)
	}
}

func TestParseRejectsInputWithoutBenchmarks(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok  \trepro\t0.1s\n")); err == nil {
		t.Error("Parse of output without benchmark lines succeeded")
	}
}
