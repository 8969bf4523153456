package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names a metric and its unit. The lists below are the
// benchmark's catalogue; BENCHMARK.json at the repository root mirrors
// them (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"reps_per_s", "1/s"},
	{"cpu_ms_per_rep", "ms"},
	{"cpu_ms_per_req", "ms"},
}

// perLayer are the metrics every workload reports from its traced run.
// Self times come from the CPU profile fold, in ms per replication on
// the sweeps and ms per request on koalad-mixed. The request latencies
// (terminal_ms.*, submit_ms.*, hot.*, cold.*) are wall-clock numbers of
// the untraced pass; they swing with the CPU time the host steals, too
// far for an end-to-end bound, so they are reported here.
var perLayer = []metricDef{
	{"sim.events_fired", "count"},
	{"sim.self_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.cancel_ratio", "ratio"},
	{"sim.pending_peak", "count"},
	{"koala.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.grow_decisions", "count"},
	{"core.shrink_decisions", "count"},
	{"gram.self_ms", "ms"},
	{"lrm.self_ms", "ms"},
	{"runner.self_ms", "ms"},
	{"dynaco.self_ms", "ms"},
	{"app.self_ms", "ms"},
	{"cluster.self_ms", "ms"},
	{"workload.self_ms", "ms"},
	{"workload.generate_us", "us"},
	{"metrics.self_ms", "ms"},
	{"stats.self_ms", "ms"},
	{"experiment.self_ms", "ms"},
	{"parallel.self_ms", "ms"},
	{"backend.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"experiment.prepare_us", "us"},
	{"experiment.runonce_ms.p50", "ms"},
	{"experiment.runonce_ms.p99", "ms"},
	{"experiment.figures_ms", "ms"},
	{"experiment.fingerprint_us", "us"},
	{"experiment.encode_us", "us"},
	{"metrics.aggregate_us", "us"},
	{"parallel.busy_ratio", "ratio"},
	{"runtime.self_ms", "ms"},
	{"runtime.gc_cycles_per_100reps", "count"},
	{"runtime.allocs_per_rep", "count"},
	{"runtime.alloc_kb_per_rep", "KB"},
	{"runtime.heap_peak_mb", "MB"},
	{"server.self_ms", "ms"},
	{"http.self_ms", "ms"},
	{"obs.self_ms", "ms"},
	{"server.queue_wait_ms.mean", "ms"},
	{"server.run_ms.mean", "ms"},
	{"server.follower_stall_ms.mean", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.refused_ratio", "ratio"},
	{"server.gone_ratio", "ratio"},
	{"trace.queue_ms.p50", "ms"},
	{"trace.dispatch_ms.p50", "ms"},
	{"trace.replication_ms.p50", "ms"},
	{"lifecycle.queued_ms.p50", "ms"},
	{"lifecycle.run_ms.p50", "ms"},
	{"store.write_ms.mean", "ms"},
	{"store.read_ms.mean", "ms"},
	{"store.journal_compactions", "count"},
	{"koalad.sim_self_ms", "ms"},
	{"gen.late_ms.p50", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"terminal_ms.p50", "ms"},
	{"terminal_ms.p90", "ms"},
	{"terminal_ms.p99", "ms"},
	{"submit_ms.p50", "ms"},
	{"submit_ms.p99", "ms"},
	{"hot.terminal_ms.p50", "ms"},
	{"hot.terminal_ms.p99", "ms"},
	{"cold.terminal_ms.p50", "ms"},
	{"cold.terminal_ms.p99", "ms"},
	{"error_rate", "ratio"},
	{"unattributed.self_ms", "ms"},
	{"unattributed.share", "ratio"},
	{"profile.total_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// report collects one run's metric values and the human-readable notes
// printed above the result line: sample counts, the environment, and
// why a metric is unavailable on a workload.
type report struct {
	values map[string]float64
	notes  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// na records a metric the workload cannot measure: it reads 0, and the
// reason is printed.
func (r *report) na(name, why string) {
	r.values[name] = 0
	r.notef("%s: unavailable on this workload (%s)", name, why)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the notes, a metric table and the result line carrying
// exactly the metrics of defs. A metric of defs that the run did not set
// is a bug in the benchmark, reported as an error.
func (r *report) emit(w io.Writer, defs []metricDef, correct bool, attempted, failed int) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
