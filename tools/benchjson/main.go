// Command benchjson converts `go test -bench` output on stdin into a JSON
// perf record so successive PRs can diff benchmark trajectories (ns/op,
// allocs/op and custom metrics per benchmark) instead of eyeballing text.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem -count=6 ./... | go run ./tools/benchjson -o BENCH_PR13.json
//
// A benchmark run several times (-count=N) is recorded as the median of
// each metric, with the sample count and each metric's quartile spread.
//
// With -compare it becomes the regression gate the bench-smoke CI job
// runs against the committed baseline:
//
//	go run ./tools/benchjson -compare BENCH_PR3.json BENCH_SMOKE.json -threshold 10
//
// A benchmark regresses when its new value exceeds the old by more than
// -threshold percent AND by an absolute slack (50 ns/op, 8 allocs/op)
// that keeps tiny benchmarks from flaking the gate. ns/op is compared
// only when both runs used more than one iteration — a -benchtime=1x
// smoke run measures allocations reliably but not time. When both files
// recorded several runs of a benchmark, its ns/op growth must also
// exceed each file's quartile spread (spread × median), so two noisy
// recordings of unchanged code do not flag each other. A custom metric
// whose unit ends in "/op" (events/op, msgs/op) is an exact count and
// gates on the threshold alone; other custom metrics are not gated. Any
// regression exits nonzero; added or removed benchmarks are reported but
// pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/tools/benchjson/benchfmt"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "diff mode: benchjson -compare old.json new.json; exits 1 on ns/op, allocs/op or custom */op regressions")
	threshold := flag.Float64("threshold", 10, "with -compare: regression threshold in percent")
	flag.Parse()

	if *compare {
		args := flag.Args()
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs two files: old.json new.json")
			os.Exit(2)
		}
		oldPath, newPath := args[0], args[1]
		// The documented form puts -threshold after the files
		// (`-compare old.json new.json -threshold 10`), where the
		// standard parser stops; pick up such trailing flags here.
		trailing := flag.NewFlagSet("compare", flag.ExitOnError)
		trailing.Float64Var(threshold, "threshold", *threshold, "regression threshold in percent")
		if err := trailing.Parse(args[2:]); err != nil || trailing.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "benchjson: unexpected arguments after old.json new.json")
			os.Exit(2)
		}
		if *threshold < 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -threshold must be >= 0")
			os.Exit(2)
		}
		oldFile, err := benchfmt.Load(oldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newFile, err := benchfmt.Load(newPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		report, regs := benchfmt.Compare(oldFile, newFile, *threshold)
		for _, line := range report {
			fmt.Println(line)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% vs %s\n",
				len(regs), *threshold, oldPath)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% vs %s\n", *threshold, oldPath)
		return
	}

	// With -o the JSON goes to a file: echo the run for the human.
	var in io.Reader = os.Stdin
	if *out != "" {
		in = io.TeeReader(os.Stdin, os.Stdout)
	}
	file, err := benchfmt.Parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(file.Benchmarks), *out)
}
