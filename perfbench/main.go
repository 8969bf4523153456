// Command perfbench is the repository's benchmark. It runs one named
// workload against the code as it stands — a Fig. 7 or Fig. 8 figure
// sweep in process, or open-loop HTTP traffic against a koalad daemon —
// checks the outputs, and prints every end-to-end metric (untraced) or
// every per-layer metric (with -trace 1) by name and unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (see README.md; run.sh builds the binaries first):
//
//	perfbench -workload fig7-pra|fig8-pwa|koalad-mixed -seed N -seconds S -trace 0|1
//	          [-koalad PATH] [-workdir DIR]
//	perfbench -digests    # print the figure digests the checks pin
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is the seed at which the figure digests are recorded.
const defaultSeed = 1

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median. A set-up is timed in CPU seconds (user+system, of the
// benchmark and of the daemon it starts), not wall seconds: on a shared
// two-vCPU host, the CPU time the hypervisor steals moved wall set-up
// time by up to 68% between otherwise identical runs, CPU time far less.
const setupRepeats = 7

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	koalad   string
	workdir  string
}

// outcome is a finished run: its metrics and its operation counts.
type outcome struct {
	rep               *report
	attempted, failed int
}

func main() {
	var o options
	var seconds, trace int
	var digests bool
	flag.StringVar(&o.workload, "workload", "", "fig7-pra, fig8-pwa or koalad-mixed")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics")
	flag.StringVar(&o.koalad, "koalad", filepath.Join(".bench_build", "bin", "koalad"), "koalad binary (koalad-mixed)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for data dirs and span files")
	flag.BoolVar(&digests, "digests", false, "print the figure digests of sweep 0 at the default seed and exit")
	flag.Parse()
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	if digests {
		if err := printDigests(); err != nil {
			fatal(err)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}

	var out *outcome
	var err error
	if w, ok := sweepWorkloads[o.workload]; ok {
		out, err = w.run(o)
	} else if o.workload == "koalad-mixed" {
		out, err = runKoalad(o)
	} else {
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fatal(err)
	}

	out.rep.notef("workload %s, seed %d, window %s, trace %v; %s, nproc %d, GOMAXPROCS %d",
		o.workload, o.seed, o.window, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	correct := out.failed == 0
	if err := out.rep.emit(os.Stdout, defs, correct, out.attempted, out.failed); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printDigests() error {
	for _, name := range []string{"fig7-pra", "fig8-pwa"} {
		w := sweepWorkloads[name]
		d, err := w.goldenDigests()
		if err != nil {
			return err
		}
		fmt.Println(name)
		for i, s := range d {
			fmt.Printf("\t%q, // %s%c\n", s, w.fig, 'a'+i)
		}
	}
	return nil
}

// setFold reports a CPU profile's buckets as self times per unit of
// work (a replication or a request), and checks that they add up to the
// profile's total.
func setFold(rep *report, f profileFold, per float64) {
	perMs := func(ns int64) float64 { return float64(ns) / 1e6 / per }
	var sum int64
	for _, l := range repoLayers {
		rep.set(l+".self_ms", perMs(f.Buckets[l]))
		sum += f.Buckets[l]
	}
	for _, b := range []string{"runtime", "http", "unattributed"} {
		rep.set(b+".self_ms", perMs(f.Buckets[b]))
		sum += f.Buckets[b]
	}
	rep.set("profile.total_ms", perMs(f.TotalNs))
	rep.set("unattributed.share", float64(f.Buckets["unattributed"])/float64(max(f.TotalNs, 1)))
	rep.notef("profile: %.0f ms of CPU samples; layers + runtime + http + unattributed = %.0f ms (%s)",
		float64(f.TotalNs)/1e6, float64(sum)/1e6, map[bool]string{true: "sums to the total", false: "DOES NOT sum to the total"}[sum == f.TotalNs])
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB is this process's peak resident set size so far.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func spanPath(o options) string {
	return filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
