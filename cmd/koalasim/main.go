// Command koalasim runs one malleability experiment on the simulated DAS-3
// testbed and reports per-job metrics and aggregates.
//
// Usage:
//
//	koalasim [-workload Wm|Wmr|W'm|W'mr] [-policy FPSMA|EGS|EQUI|FOLD]
//	         [-approach PRA|PWA] [-placement WF|CF|CM|FCM]
//	         [-runs N] [-parallel N] [-seed S] [-reserve N] [-poll SEC]
//	         [-no-background] [-csv FILE] [-stream] [-version]
//	         [-workers http://hostA:8080,http://hostB:8080]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-trace FILE] [-simstats]
//
// With -workers the experiment executes on a remote koalad worker
// (chosen by config fingerprint) instead of in-process, falling back
// to local execution if the worker is unreachable; results are
// byte-identical either way. Remote execution uses the streaming
// aggregation path, so it requires -stream.
//
// -trace writes the run's lifecycle spans (submit, execute, per-
// replication; plus any spans a remote worker streamed back) as JSON.
// -simstats prints the simulation engine's counters after the run —
// events scheduled/fired/canceled, peak pending, grow/shrink decisions
// — read from counters the engine and the malleability manager keep
// anyway, once per replication after its last run loop, so collecting
// them cannot perturb results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/backend"
	"repro/internal/buildinfo"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() { os.Exit(run()) }

// run parses flags and executes the experiment. It returns the process
// exit code instead of calling os.Exit so the profiling defers always
// flush their files, even on error paths.
func run() int {
	version := flag.Bool("version", false, "print version and exit")
	wl := flag.String("workload", "Wm", "workload: Wm, Wmr, W'm, W'mr")
	policy := flag.String("policy", "FPSMA", "malleability policy: FPSMA, EGS, EQUI, FOLD")
	approach := flag.String("approach", "PRA", "job management approach: PRA or PWA")
	placement := flag.String("placement", "WF", "placement policy: WF, CF, CM, FCM")
	runs := flag.Int("runs", 1, "independent runs to pool")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the runs (1 = serial; default: one per CPU)")
	seed := flag.Uint64("seed", 1, "base random seed")
	reserve := flag.Int("reserve", 0, "growth reserve per cluster for local users")
	poll := flag.Float64("poll", 0, "scheduler poll interval in seconds (0 = default)")
	noBg := flag.Bool("no-background", false, "disable bypassing local users")
	csvPath := flag.String("csv", "", "write per-job records to this CSV file")
	stream := flag.Bool("stream", false, "stream per-replication aggregates instead of pooling records (constant memory; quantiles are sketch-approximate; incompatible with -csv)")
	workers := flag.String("workers", "", "comma-separated koalad worker base URLs: execute the experiment on a remote worker instead of in-process (requires -stream)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiment) to this file")
	tracePath := flag.String("trace", "", "write the run's lifecycle trace (JSON spans) to this file")
	simStats := flag.Bool("simstats", false, "print simulation-engine counters (events, grow/shrink decisions) after the run; in-process execution only")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("koalasim"))
		return 0
	}
	// Fail bad execution knobs fast, before any simulation state exists.
	if *par < 1 {
		fmt.Fprintf(os.Stderr, "koalasim: -parallel must be at least 1 worker (got %d); omit the flag for one per CPU\n", *par)
		return 1
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "koalasim: -runs must be at least 1 (got %d)\n", *runs)
		return 1
	}
	if *stream && *csvPath != "" {
		fmt.Fprintln(os.Stderr, "koalasim: -csv needs per-job records, which -stream does not retain")
		return 1
	}
	if *workers != "" && !*stream {
		fmt.Fprintln(os.Stderr, "koalasim: -workers executes remotely on the streaming path; add -stream")
		return 1
	}
	if *simStats && *workers != "" {
		fmt.Fprintln(os.Stderr, "koalasim: -simstats reads the in-process engine; it cannot observe a remote worker's")
		return 1
	}
	var remote *backend.Remote
	if *workers != "" {
		var err error
		log, _ := obs.NewLogger(os.Stderr, obs.LogText, 0)
		remote, err = backend.NewRemote(backend.RemoteOptions{
			Workers: strings.Split(*workers, ","),
			Log:     log,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
	}
	spec, err := workload.SpecByName(*wl, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "koalasim:", err)
		return 1
	}

	// Flags are valid: start profiling only now, so a usage error never
	// leaves a truncated profile behind.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "koalasim:", err)
			}
			f.Close()
		}()
	}
	cfg := experiment.Config{
		Workload:      spec,
		Policy:        *policy,
		Approach:      *approach,
		Placement:     *placement,
		Runs:          *runs,
		Parallelism:   *par,
		Seed:          *seed,
		PollInterval:  *poll,
		GrowthReserve: *reserve,
		NoBackground:  *noBg,
	}
	var collector *obs.SimStats
	if *simStats {
		collector = obs.NewSimStats()
		cfg.SimStats = collector
	}
	// The CLI trace mirrors koalad's run lifecycle: a root span over the
	// whole experiment, an execute span around the backend call, and —
	// via the same context propagation the daemon uses — any spans a
	// remote worker streams back, parented under the execute span.
	var tr *obs.Trace
	var rootSpan string
	if *tracePath != "" {
		tr = obs.NewTrace("")
		rootSpan = tr.StartSpan("", "koalasim", map[string]string{
			"workload": spec.Name, "policy": *policy, "approach": *approach,
			"placement": *placement, "runs": fmt.Sprint(*runs), "seed": fmt.Sprint(*seed),
		})
	}
	finishTrace := func() {
		if tr == nil {
			return
		}
		tr.EndSpan(rootSpan)
		b, err := json.MarshalIndent(tr.Snapshot(), "", "  ")
		if err == nil {
			err = os.WriteFile(*tracePath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim: writing trace:", err)
			return
		}
		fmt.Printf("trace      : written to %s\n", *tracePath)
	}
	printSimStats := func() {
		if collector == nil {
			return
		}
		snap := collector.Snapshot()
		fmt.Printf("sim events : %d scheduled, %d fired, %d canceled (peak pending %d)\n",
			snap.EventsScheduled, snap.EventsFired, snap.EventsCanceled, snap.PendingPeak)
		fmt.Printf("sim ops    : %d grow, %d shrink decisions\n", snap.GrowDecisions, snap.ShrinkDecisions)
		fmt.Printf("sim horizon: %.1f sim-seconds\n", snap.SimHorizon)
	}

	if *stream {
		var res *experiment.StreamResult
		var err error
		ctx := context.Background()
		var execSpan string
		if tr != nil {
			name := "local"
			if remote != nil {
				name = remote.Name()
			}
			execSpan = tr.StartSpan(rootSpan, "execute", map[string]string{"backend": name})
			ctx = obs.ContextWithSpanContext(ctx, obs.SpanContext{TraceID: tr.ID, SpanID: execSpan})
			ctx = obs.ContextWithSpanSink(ctx, tr.Import)
		}
		if remote != nil {
			res, err = remote.RunPoint(ctx, cfg, experiment.StreamHooks{})
		} else {
			res, err = experiment.RunStream(cfg)
		}
		if tr != nil {
			tr.EndSpan(execSpan)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		where := "streamed"
		if remote != nil {
			where = "streamed via workers"
		}
		// Print from the wire summary: identical for local and remote
		// execution (remote results carry no in-process aggregate).
		sum := res.Summary()
		fmt.Printf("experiment : %s/%s/%s placement=%s runs=%d seed=%d (%s)\n",
			*approach, *policy, spec.Name, *placement, *runs, *seed, where)
		fmt.Printf("jobs       : %d finished, %d rejected\n", sum.Jobs, sum.Rejected)
		fmt.Printf("exec time  : %s\n", sum.Exec)
		fmt.Printf("response   : %s\n", sum.Response)
		if sum.Malleable > 0 {
			fmt.Printf("avg procs  : %s\n", sum.AvgProcs)
			fmt.Printf("max procs  : %s\n", sum.MaxProcs)
		}
		fmt.Printf("mean util  : %.1f processors\n", sum.MeanUtilization)
		fmt.Printf("ops/run    : %.1f malleability operations\n", sum.OpsPerRun)
		printSimStats()
		finishTrace()
		return 0
	}

	var execSpan string
	if tr != nil {
		execSpan = tr.StartSpan(rootSpan, "execute", map[string]string{"backend": "local"})
	}
	res, err := experiment.Run(cfg)
	if tr != nil {
		tr.EndSpan(execSpan)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "koalasim:", err)
		return 1
	}

	fmt.Printf("experiment : %s/%s/%s placement=%s runs=%d seed=%d\n",
		*approach, *policy, spec.Name, *placement, *runs, *seed)
	fmt.Printf("jobs       : %d finished", len(res.Pooled))
	rejected := 0
	for _, run := range res.Runs {
		rejected += run.Rejected
	}
	fmt.Printf(", %d rejected\n", rejected)
	fmt.Printf("exec time  : %s\n", stats.Summarize(metrics.ExecTimesOf(res.Pooled)))
	fmt.Printf("response   : %s\n", stats.Summarize(metrics.ResponseTimesOf(res.Pooled)))
	// The size lines read two fields of each malleable record in place.
	var avgProcs, maxProcs []float64
	for i := range res.Pooled {
		if r := &res.Pooled[i]; r.Malleable {
			avgProcs = append(avgProcs, r.AvgProcs)
			maxProcs = append(maxProcs, float64(r.MaxProcs))
		}
	}
	if len(avgProcs) > 0 {
		fmt.Printf("avg procs  : %s\n", stats.Summarize(avgProcs))
		fmt.Printf("max procs  : %s\n", stats.Summarize(maxProcs))
	}
	fmt.Printf("mean util  : %.1f processors\n", res.MeanUtilization())
	fmt.Printf("ops/run    : %.1f malleability operations\n", res.TotalOps())
	printSimStats()
	finishTrace()

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		defer f.Close()
		if err := metrics.WriteCSV(f, res.Pooled); err != nil {
			fmt.Fprintln(os.Stderr, "koalasim:", err)
			return 1
		}
		fmt.Printf("records    : written to %s\n", *csvPath)
	}
	return 0
}
