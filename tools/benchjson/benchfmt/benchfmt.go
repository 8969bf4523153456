// Package benchfmt is the BENCH_*.json schema and regression gate
// shared by the benchjson CLI and every other producer of perf
// trajectory files (cmd/koalaload writes its fleet results in this
// format so load numbers ride the same -compare gate as the
// microbenchmarks).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Result is one benchmark's measurement. From several runs of the same
// benchmark (go test -count=N), each value is the median over the runs.
type Result struct {
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Samples is how many runs the medians are over (omitted for one).
	Samples int `json:"samples,omitempty"`
	// Spread maps a unit ("ns/op", "B/op", "allocs/op" or a custom
	// metric) to its quartile spread over the runs, relative to the
	// median; units that did not vary are omitted.
	Spread map[string]float64 `json:"spread,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	GoVersion  string            `json:"go_version"`
	GoOS       string            `json:"goos"`
	GoArch     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// New returns an empty File stamped with this build's toolchain and
// platform.
func New() File {
	return File{
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Benchmarks: map[string]Result{},
	}
}

// Load reads a BENCH_*.json produced by this schema. A file without a
// single benchmark is an error: gating against it would pass vacuously.
func Load(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return File{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

// Write marshals the file (indented, trailing newline) to path.
func (f File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Absolute slack under which a delta is noise, not a regression: tiny
// benchmarks jitter by a few ns or a warmup allocation, and a pure
// percentage gate would flake on them.
const (
	nsSlack     = 50.0 // ns/op
	allocsSlack = 8.0  // allocs/op, steady-state runs
	// A single cold iteration charges one-time warmup allocations
	// (sync.Once, lazy tables, map growth) to the benchmark; in a full
	// run they amortize to ~0. Smoke runs get a wider absolute slack
	// so a zero-alloc hot path's warmup does not read as a regression.
	coldAllocsSlack = 32.0
)

// allocSlack picks the allocs/op slack for a pair of measurements:
// cold if either run made just one iteration.
func allocSlack(oldR, newR Result) float64 {
	if oldR.Iterations <= 1 || newR.Iterations <= 1 {
		return coldAllocsSlack
	}
	return allocsSlack
}

// Regression is one metric of one benchmark exceeding the gate.
type Regression struct {
	Name, Metric string
	Old, New     float64
	DeltaPercent float64
}

// exceeds applies the gate: relative growth beyond threshold percent
// AND absolute growth beyond slack.
func exceeds(oldV, newV, threshold, slack float64) (float64, bool) {
	if oldV <= 0 {
		// A zero baseline has no meaningful relative delta; the
		// absolute slack alone decides.
		return 0, newV-oldV > slack
	}
	pct := (newV - oldV) / oldV * 100
	return pct, pct > threshold && newV-oldV > slack
}

// beyondSpread reports whether the ns/op growth from oldR to newR, two
// medians over several runs, exceeds each run's own quartile spread
// (spread × median): a delta inside either recording's noise is not a
// regression.
func beyondSpread(oldR, newR Result) bool {
	delta := newR.NsPerOp - oldR.NsPerOp
	return delta > oldR.Spread["ns/op"]*oldR.NsPerOp && delta > newR.Spread["ns/op"]*newR.NsPerOp
}

// Compare diffs new against old benchmark by benchmark, returning a
// human report and the regressions that should fail the gate.
// Benchmarks present on only one side are reported but never fail —
// suites legitimately grow and shrink across PRs. Besides ns/op and
// allocs/op, every custom metric whose unit ends in "/op" (such as
// events/op) gates as lower-is-better on the relative threshold alone:
// these are exact per-operation counts, the same in a 1x smoke run as in
// a full one, so no absolute slack is needed. Other custom metrics
// (speedup, mean-exec-s, ...) are recorded but never gated.
func Compare(oldFile, newFile File, threshold float64) (report []string, regs []Regression) {
	names := make([]string, 0, len(oldFile.Benchmarks))
	for name := range oldFile.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		oldR := oldFile.Benchmarks[name]
		newR, ok := newFile.Benchmarks[name]
		if !ok {
			report = append(report, fmt.Sprintf("  %-60s removed", name))
			continue
		}
		// ns/op only means something when the run iterated: a
		// -benchtime=1x smoke measures a single call, cold.
		if oldR.NsPerOp > 0 && newR.NsPerOp > 0 && oldR.Iterations > 1 && newR.Iterations > 1 {
			pct, bad := exceeds(oldR.NsPerOp, newR.NsPerOp, threshold, nsSlack)
			if bad && oldR.Samples > 1 && newR.Samples > 1 {
				bad = beyondSpread(oldR, newR)
			}
			if bad {
				regs = append(regs, Regression{name, "ns/op", oldR.NsPerOp, newR.NsPerOp, pct})
				report = append(report, fmt.Sprintf("REG %-60s ns/op     %12.1f -> %12.1f (%+.1f%%)",
					name, oldR.NsPerOp, newR.NsPerOp, pct))
			} else {
				report = append(report, fmt.Sprintf("  %-60s ns/op     %12.1f -> %12.1f (%+.1f%%)",
					name, oldR.NsPerOp, newR.NsPerOp, pct))
			}
		}
		if pct, bad := exceeds(oldR.AllocsPerOp, newR.AllocsPerOp, threshold, allocSlack(oldR, newR)); bad {
			regs = append(regs, Regression{name, "allocs/op", oldR.AllocsPerOp, newR.AllocsPerOp, pct})
			report = append(report, fmt.Sprintf("REG %-60s allocs/op %12.0f -> %12.0f (%+.1f%%)",
				name, oldR.AllocsPerOp, newR.AllocsPerOp, pct))
		} else if oldR.AllocsPerOp > 0 || newR.AllocsPerOp > 0 {
			report = append(report, fmt.Sprintf("  %-60s allocs/op %12.0f -> %12.0f (%+.1f%%)",
				name, oldR.AllocsPerOp, newR.AllocsPerOp, pct))
		}
		units := make([]string, 0, len(oldR.Metrics))
		for unit := range oldR.Metrics {
			if _, ok := newR.Metrics[unit]; ok && strings.HasSuffix(unit, "/op") {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			oldV, newV := oldR.Metrics[unit], newR.Metrics[unit]
			pct, bad := exceeds(oldV, newV, threshold, 0)
			line := fmt.Sprintf("%-60s %-9s %12.0f -> %12.0f (%+.1f%%)", name, unit, oldV, newV, pct)
			if bad {
				regs = append(regs, Regression{name, unit, oldV, newV, pct})
				report = append(report, "REG "+line)
			} else {
				report = append(report, "  "+line)
			}
		}
	}
	added := make([]string, 0)
	for name := range newFile.Benchmarks {
		if _, ok := oldFile.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		report = append(report, fmt.Sprintf("  %-60s added", name))
	}
	return report, regs
}
