package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// sweepWorkload regenerates one figure set of the paper the way
// cmd/figures does: RunSet over the approach's four combos, then the six
// figure extractors. Sweeps are issued back to back (a closed loop) for
// the measured window; sweep i gets its own seeds, derived from the
// benchmark seed.
type sweepWorkload struct {
	approach string
	fig      string // "7" or "8"
	combos   []experiment.Combo
	// end and step are the time axis of the utilisation and operations
	// figures (e, f), as cmd/figures draws them.
	end, step float64
	// digests are the SHA-256 of figures a–f's CSV for sweep 0 at
	// defaultSeed: the results the repository produced when the
	// benchmark was written.
	digests [6]string
}

// sweepRuns is the replication count per combination: the paper's (and
// cmd/figures') 4 runs per combination.
const sweepRuns = 4

// jobsPerRep is the job count of every paper workload.
const jobsPerRep = 300

var sweepWorkloads = map[string]sweepWorkload{
	"fig7-pra": {
		approach: "PRA", fig: "7", combos: experiment.PRACombos(), end: 40000, step: 500,
		digests: [6]string{
			"0bfd629632353ba4a8ca95dc19caee0d4454ab90951754a10ec08c36e2b2e92d", // 7a
			"36df671ad282a1319e8daf41702865eaf435f6173aa1e1ab698e1cea6595f162", // 7b
			"449976ac9347955b0c4929f154f07f583a545173f6d3f588820fef1697068f2c", // 7c
			"276dca00d66cf017fde0b699d4378a71c83d2641d1211fe2fd78db5f00e5961c", // 7d
			"1ce066d6feaa0abaea36a39b52ea0df6c786e0c93d342b167445bf321d25d8f1", // 7e
			"46393187b71e94589ede0f3d4494cca4fee24a597522b6e5e131d94d3c639c68", // 7f
		},
	},
	"fig8-pwa": {
		approach: "PWA", fig: "8", combos: experiment.PWACombos(), end: 12000, step: 200,
		digests: [6]string{
			"8a889d6e4f2b8b7ecbb820643cb2993195909bb44946f14358fb07f3c396d6b0", // 8a
			"d01be458da204f66cd43abac82eacb5e9f81f2d250414cac548c404b608f7d60", // 8b
			"9898e28517ddea670866a8e4d075adfa0daf9182d15a3ae5f9c5bcef3a6bb07e", // 8c
			"d687f6ff9eaeb181be0a1a63ecc2851d6b186689611d34965f7bff8903617d6d", // 8d
			"49e8d70e3945464005554923a5b693126d43dd1169834a2d5987a9527994bcc6", // 8e
			"54cec6a996f4a849ced835a49c4a331a55f440b127e6c8f0cc61a14a3d08cbea", // 8f
		},
	},
}

// base is the sweep-wide config of sweep i: every combo's replication
// seeds are distinct across the sweeps of one benchmark seed.
func (w sweepWorkload) base(seed uint64, i int) experiment.Config {
	return experiment.Config{
		Runs:        sweepRuns,
		Parallelism: runtime.GOMAXPROCS(0),
		Seed:        seed*1_000_000 + uint64(i)*sweepRuns,
	}
}

func (w sweepWorkload) figures(s *experiment.Set) []experiment.Figure {
	f := w.fig
	return []experiment.Figure{
		s.FigSizesAvg(f + "a"),
		s.FigSizesMax(f + "b"),
		s.FigExecTimes(f + "c"),
		s.FigResponseTimes(f + "d"),
		s.FigUtilization(f+"e", 0, w.end, w.step),
		s.FigOps(f+"f", 0, w.end, w.step),
	}
}

func csvDigests(figs []experiment.Figure) []string {
	out := make([]string, len(figs))
	for i, f := range figs {
		sum := sha256.Sum256([]byte(f.CSV()))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// shortReps counts the replications of s that did not finish all of
// their jobs.
func shortReps(s *experiment.Set) int {
	n := 0
	for _, label := range s.Labels {
		for _, run := range s.Results[label].Runs {
			if len(run.Records) != jobsPerRep {
				n++
			}
		}
	}
	return n
}

// runSetTimed is RunSet rebuilt from the public calls it is made of —
// Prepare and Prepared.RunOnce per (combo, replication), on the same
// bounded pool — so that each call can be timed. The output checks
// compare its figures with RunSet's byte for byte.
func runSetTimed(approach string, combos []experiment.Combo, base experiment.Config, tr *tracer, parent int) (*experiment.Set, error) {
	cfgs := experiment.ComboConfigs(approach, combos, base)
	type task struct{ combo, run int }
	var tasks []task
	runs := make([][]*experiment.RunResult, len(cfgs))
	for c, cfg := range cfgs {
		runs[c] = make([]*experiment.RunResult, cfg.Runs)
		for r := 0; r < cfg.Runs; r++ {
			tasks = append(tasks, task{c, r})
		}
	}
	pool := tr.start("parallel.ForEach", parent)
	err := parallel.ForEach(context.Background(), len(tasks), base.Parallelism, func(_ context.Context, i int) error {
		t := tasks[i]
		cfg := cfgs[t.combo]
		sp := tr.start("experiment.Prepare", pool)
		p, err := experiment.Prepare(cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("experiment.Prepared.RunOnce", pool)
		r, err := p.RunOnce(cfg.Seed + uint64(t.run))
		tr.end(sp)
		if err != nil {
			return err
		}
		runs[t.combo][t.run] = r
		return nil
	})
	tr.end(pool)
	if err != nil {
		return nil, err
	}
	set := &experiment.Set{Approach: approach, Results: map[string]*experiment.Result{}}
	for c, combo := range combos {
		res := &experiment.Result{Config: cfgs[c], Runs: runs[c]}
		for _, r := range runs[c] {
			res.Pooled = append(res.Pooled, r.Records...)
		}
		set.Results[combo.Label] = res
		set.Labels = append(set.Labels, combo.Label)
	}
	return set, nil
}

// sweepPass is one measured window of back-to-back sweeps.
type sweepPass struct {
	sweeps, reps int
	short        int // replications with a wrong job count
	bad          int // sweeps with any such replication
	wall, cpu    time.Duration
	sweepMs      []float64
	first        *experiment.Set // sweep 0, kept for the checks
	firstCSV     []string
}

// measure runs sweeps back to back for d. Untraced (tr == nil) it calls
// RunSet; traced it calls runSetTimed under tr, with stats collecting
// the simulator's counters.
func (w sweepWorkload) measure(seed uint64, d time.Duration, tr *tracer, stats *obs.SimStats) (sweepPass, error) {
	var p sweepPass
	start, cpu0 := time.Now(), processCPU()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t := time.Now()
		base := w.base(seed, i)
		var set *experiment.Set
		var err error
		if tr == nil {
			set, err = experiment.RunSet(w.approach, w.combos, base)
		} else {
			base.SimStats = stats
			sp := tr.start("sweep", -1)
			set, err = runSetTimed(w.approach, w.combos, base, tr, sp)
			tr.end(sp)
		}
		if err != nil {
			return p, err
		}
		fs := tr.start("experiment.figures", -1)
		figs := w.figures(set)
		tr.end(fs)
		p.sweepMs = append(p.sweepMs, ms(time.Since(t)))
		p.sweeps++
		p.reps += len(w.combos) * sweepRuns
		if n := shortReps(set); n > 0 {
			p.short += n
			p.bad++
		}
		if i == 0 {
			p.first = set
			p.firstCSV = csvDigests(figs)
		}
	}
	p.wall, p.cpu = time.Since(start), processCPU()-cpu0
	return p, nil
}

// setupOnce is one sweep set-up: build and Prepare every combo's config
// and warm each with one replication, as the first sweep would. It
// returns the CPU time the set-up took (see setupRepeats).
func (w sweepWorkload) setupOnce(seed uint64) (time.Duration, error) {
	t := processCPU()
	for _, cfg := range experiment.ComboConfigs(w.approach, w.combos, w.base(seed, 0)) {
		p, err := experiment.Prepare(cfg)
		if err != nil {
			return 0, err
		}
		if _, err := p.RunOnce(cfg.Seed); err != nil {
			return 0, err
		}
	}
	return processCPU() - t, nil
}

func (w sweepWorkload) run(o options) (*outcome, error) {
	out := &outcome{rep: newReport()}
	rep := out.rep

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := w.setupOnce(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	rep.set("setup_s", median(setups))

	plain, err := w.measure(o.seed, o.window, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", float64(peakRSSKB())/1024)
	w.endToEnd(rep, plain)
	out.attempted += plain.sweeps
	out.failed += plain.bad
	rep.notef("untraced: %d sweeps, %d replications in %.2fs; latency quantiles over n=%d sweeps",
		plain.sweeps, plain.reps, plain.wall.Seconds(), len(plain.sweepMs))

	// The traced run (or, untraced, one sweep through runSetTimed) must
	// reproduce RunSet's figures exactly.
	var traced sweepPass
	if o.trace {
		if traced, err = w.traced(o, rep, plain); err != nil {
			return nil, err
		}
		out.attempted += traced.sweeps
		out.failed += traced.bad
	} else {
		set, err := runSetTimed(w.approach, w.combos, w.base(o.seed, 0), nil, -1)
		if err != nil {
			return nil, err
		}
		traced.firstCSV = csvDigests(w.figures(set))
	}
	out.attempted++
	if !slices.Equal(plain.firstCSV, traced.firstCSV) {
		out.failed++
		rep.notef("CHECK FAILED: runSetTimed's figures differ from RunSet's for sweep 0")
	}

	// The default seed's first sweep must reproduce the recorded digests.
	golden, err := w.goldenDigests()
	if err != nil {
		return nil, err
	}
	out.attempted++
	if mismatch := w.digestMismatches(golden); len(mismatch) > 0 {
		out.failed++
		rep.notef("CHECK FAILED: figure CSV digests differ at seed %d: %v", defaultSeed, mismatch)
	}
	if plain.short+traced.short > 0 {
		rep.notef("CHECK FAILED: %d replications did not report %d jobs", plain.short+traced.short, jobsPerRep)
	}
	rep.set("error_rate", float64(out.failed)/float64(out.attempted))
	return out, nil
}

func (w sweepWorkload) endToEnd(rep *report, p sweepPass) {
	rep.set("reps_per_s", float64(p.reps)/p.wall.Seconds())
	rep.set("cpu_ms_per_rep", ms(p.cpu)/float64(p.reps))
	rep.set("cpu_ms_per_req", ms(p.cpu)/float64(p.sweeps))
	q := quantiles(p.sweepMs, 0.5, 0.9, 0.99)
	rep.set("terminal_ms.p50", q[0])
	rep.set("terminal_ms.p90", q[1])
	rep.set("terminal_ms.p99", q[2])
}

// goldenDigests returns the figure digests of sweep 0 at defaultSeed.
func (w sweepWorkload) goldenDigests() ([]string, error) {
	set, err := experiment.RunSet(w.approach, w.combos, w.base(defaultSeed, 0))
	if err != nil {
		return nil, err
	}
	return csvDigests(w.figures(set)), nil
}

func (w sweepWorkload) digestMismatches(got []string) []string {
	var bad []string
	for i, d := range got {
		if d != w.digests[i] {
			bad = append(bad, fmt.Sprintf("%s%c", w.fig, 'a'+i))
		}
	}
	return bad
}

// traced repeats the window with runSetTimed, the simulator's
// counters and a CPU profile, and reports the per-layer metrics.
func (w sweepWorkload) traced(o options, rep *report, plain sweepPass) (sweepPass, error) {
	tr := newTracer()
	stats := obs.NewSimStats()
	var before, after runtime.MemStats
	var prof bytes.Buffer

	if err := pprof.StartCPUProfile(&prof); err != nil {
		return sweepPass{}, err
	}
	heap := startHeapSampler()
	runtime.ReadMemStats(&before)
	p, err := w.measure(o.seed, o.window, tr, stats)
	runtime.ReadMemStats(&after)
	heapPeak := heap.stop()
	pprof.StopCPUProfile()
	if err != nil {
		return p, err
	}
	reps := float64(p.reps)

	fold, err := foldCPUProfile(prof.Bytes())
	if err != nil {
		return p, err
	}
	setFold(rep, fold, reps)
	ss := stats.Snapshot()
	rep.set("sim.events_fired", float64(ss.EventsFired)/reps)
	rep.set("sim.ns_per_event", float64(fold.Buckets["sim"])/float64(max(ss.EventsFired, 1)))
	rep.set("sim.cancel_ratio", float64(ss.EventsCanceled)/float64(max(ss.EventsScheduled, 1)))
	rep.set("sim.pending_peak", float64(ss.PendingPeak))
	rep.set("core.grow_decisions", float64(ss.GrowDecisions)/reps)
	rep.set("core.shrink_decisions", float64(ss.ShrinkDecisions)/reps)

	rep.set("experiment.figures_ms", sum(msList(tr.durations("experiment.figures")))/reps)
	busy := sum(msList(tr.durations("experiment.Prepare"))) + sum(msList(tr.durations("experiment.Prepared.RunOnce")))
	pool := sum(msList(tr.durations("parallel.ForEach")))
	rep.set("parallel.busy_ratio", busy/(float64(runtime.GOMAXPROCS(0))*pool))

	rep.set("runtime.gc_cycles_per_100reps", float64(after.NumGC-before.NumGC)*100/reps)
	rep.set("runtime.allocs_per_rep", float64(after.Mallocs-before.Mallocs)/reps)
	rep.set("runtime.alloc_kb_per_rep", float64(after.TotalAlloc-before.TotalAlloc)/1024/reps)
	rep.set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20))

	if err := timeSideCalls(tr, p.first); err != nil {
		return p, err
	}
	setCallTimes(rep, tr)
	for _, name := range serverOnly {
		rep.na(name, "no koalad on a sweep")
	}
	rep.set("trace.overhead_ratio", (float64(plain.reps)/plain.wall.Seconds())/(reps/p.wall.Seconds())-1)
	return p, tr.write(spanPath(o))
}

// serverOnly are the per-layer metrics that exist only with a koalad.
var serverOnly = []string{
	"server.queue_wait_ms.mean", "server.run_ms.mean", "server.follower_stall_ms.mean",
	"server.cache_hit_ratio", "server.refused_ratio", "server.gone_ratio",
	"trace.queue_ms.p50", "trace.dispatch_ms.p50", "trace.replication_ms.p50",
	"lifecycle.queued_ms.p50", "lifecycle.run_ms.p50",
	"store.write_ms.mean", "store.read_ms.mean", "store.journal_compactions",
	"koalad.sim_self_ms", "gen.late_ms.p50", "gen.late_ms.p99",
	"submit_ms.p50", "submit_ms.p99", "hot.terminal_ms.p50", "hot.terminal_ms.p99",
	"cold.terminal_ms.p50", "cold.terminal_ms.p99",
}

// timeSideCalls times, outside the profiled window, the public calls a
// sweep makes only implicitly: workload generation, fingerprinting and
// the streaming aggregate, over sweep 0's configs and records.
func timeSideCalls(tr *tracer, set *experiment.Set) error {
	for _, label := range set.Labels {
		res := set.Results[label]
		spec, err := workload.PrepareSpec(res.Config.Workload)
		if err != nil {
			return err
		}
		for _, run := range res.Runs {
			sp := tr.start("workload.PreparedSpec.Generate", -1)
			spec.Generate(run.Seed)
			tr.end(sp)
			sp = tr.start("experiment.Fingerprint", -1)
			_, err := experiment.Fingerprint(res.Config)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.start("metrics.Aggregate", -1)
			a := metrics.NewAggregate()
			a.ObserveAll(run.Records)
			tr.end(sp)
		}
	}
	return nil
}

// setCallTimes reports the timed public calls from their spans.
func setCallTimes(rep *report, tr *tracer) {
	meanUs := func(name string) float64 { return mean(msList(tr.durations(name))) * 1000 }
	rep.set("workload.generate_us", meanUs("workload.PreparedSpec.Generate"))
	rep.set("experiment.prepare_us", meanUs("experiment.Prepare"))
	rep.set("experiment.fingerprint_us", meanUs("experiment.Fingerprint"))
	rep.set("metrics.aggregate_us", meanUs("metrics.Aggregate"))
	runs := msList(tr.durations("experiment.Prepared.RunOnce"))
	q := quantiles(runs, 0.5, 0.99)
	rep.set("experiment.runonce_ms.p50", q[0])
	rep.set("experiment.runonce_ms.p99", q[1])
	rep.notef("experiment.runonce_ms quantiles over n=%d replications", len(runs))
	if len(tr.durations("experiment.EncodeSummary")) > 0 {
		rep.set("experiment.encode_us", meanUs("experiment.EncodeSummary"))
	} else {
		rep.na("experiment.encode_us", "RunSet encodes no summaries")
	}
}

// heapSampler polls the live heap size so a run can report its peak.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
