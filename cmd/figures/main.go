// Command figures regenerates every table and figure of the paper's
// evaluation (Table I, Fig. 6, Figs. 7a–f, Figs. 8a–f) from the simulation.
//
// Usage:
//
//	figures [-runs N] [-parallel N] [-seed S] [-csv] [-only 7a,8f,...]
//	        [-stream] [-version]
//
// Without -only, everything is produced in paper order. Output goes to
// stdout; -csv switches from aligned columns to CSV. -stream replaces
// the pooled summary tables with the constant-memory streaming
// aggregation path (per-job records are never retained); the CDF/series
// figures need the records, so -stream implies -only summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/experiment"
)

func main() {
	version := flag.Bool("version", false, "print version and exit")
	runs := flag.Int("runs", 4, "independent runs per combination (the paper uses 4)")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines per sweep fan-out (1 = serial; default: one per CPU)")
	seed := flag.Uint64("seed", 1, "base random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned columns")
	only := flag.String("only", "", "comma-separated subset (table1,6,7a..7f,8a..8f,summary)")
	stream := flag.Bool("stream", false, "compute the summary tables on the streaming aggregation path (constant memory, no per-job records; implies -only summary)")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("figures"))
		return
	}
	if *par < 1 {
		fmt.Fprintf(os.Stderr, "figures: -parallel must be at least 1 worker (got %d); omit the flag for one per CPU\n", *par)
		os.Exit(1)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "figures: -runs must be at least 1 (got %d)\n", *runs)
		os.Exit(1)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	selected := func(k string) bool { return len(want) == 0 || want[k] }

	if *stream {
		// The CDF/series figures need the per-job records that -stream
		// deliberately never retains, and the summary tables are plain
		// aligned text in batch mode too — reject the combinations
		// instead of silently ignoring the flags.
		if *csv {
			fmt.Fprintln(os.Stderr, "figures: -csv formats figure output; -stream produces summary tables only")
			os.Exit(1)
		}
		if *only != "" && !(len(want) == 1 && want["summary"]) {
			fmt.Fprintln(os.Stderr, "figures: -stream computes no figures; only -only summary is compatible")
			os.Exit(1)
		}
		base := experiment.Config{Runs: *runs, Parallelism: *par, Seed: *seed}
		for _, ap := range []struct {
			name   string
			fig    string
			combos []experiment.Combo
		}{
			{"PRA", "7", experiment.PRACombos()},
			{"PWA", "8", experiment.PWACombos()},
		} {
			// One shared replication limiter per approach, like the batch sweep.
			results, err := experiment.RunSetStream(context.Background(), ap.name, ap.combos, base)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
			fmt.Printf("# %s summary (Fig. %s aggregate, streamed)\n", ap.name, ap.fig)
			fmt.Printf("%-14s %8s %10s %10s %10s %10s %8s\n",
				"combo", "jobs", "mean-exec", "mean-resp", "mean-util", "ops/run", "rejected")
			for i, res := range results {
				fmt.Printf("%-14s %8d %10.1f %10.1f %10.1f %10.1f %8d\n",
					ap.combos[i].Label, res.Jobs(), res.MeanExecution(), res.MeanResponse(),
					res.MeanUtilization(), res.TotalOps(), res.Rejected())
			}
			fmt.Println()
		}
		return
	}

	emit := func(fig experiment.Figure) {
		if *csv {
			fmt.Print(fig.CSV())
		} else {
			fmt.Print(fig.Render())
		}
		fmt.Println()
	}

	if selected("table1") {
		fmt.Println("# Table I — the distribution of the nodes over the DAS clusters")
		fmt.Println(experiment.Table1())
	}
	if selected("6") {
		emit(experiment.Fig6())
	}

	needPRA := false
	for _, k := range []string{"7a", "7b", "7c", "7d", "7e", "7f", "summary"} {
		if selected(k) {
			needPRA = true
		}
	}
	needPWA := false
	for _, k := range []string{"8a", "8b", "8c", "8d", "8e", "8f", "summary"} {
		if selected(k) {
			needPWA = true
		}
	}

	base := experiment.Config{Runs: *runs, Parallelism: *par, Seed: *seed}

	if needPRA {
		set, err := experiment.RunSet("PRA", experiment.PRACombos(), base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if selected("7a") {
			emit(set.FigSizesAvg("7a"))
		}
		if selected("7b") {
			emit(set.FigSizesMax("7b"))
		}
		if selected("7c") {
			emit(set.FigExecTimes("7c"))
		}
		if selected("7d") {
			emit(set.FigResponseTimes("7d"))
		}
		if selected("7e") {
			emit(set.FigUtilization("7e", 0, 40000, 500))
		}
		if selected("7f") {
			emit(set.FigOps("7f", 0, 40000, 500))
		}
		if selected("summary") {
			fmt.Println("# PRA summary (Fig. 7 aggregate)")
			fmt.Println(set.SummaryTable())
		}
	}
	if needPWA {
		set, err := experiment.RunSet("PWA", experiment.PWACombos(), base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		if selected("8a") {
			emit(set.FigSizesAvg("8a"))
		}
		if selected("8b") {
			emit(set.FigSizesMax("8b"))
		}
		if selected("8c") {
			emit(set.FigExecTimes("8c"))
		}
		if selected("8d") {
			emit(set.FigResponseTimes("8d"))
		}
		if selected("8e") {
			emit(set.FigUtilization("8e", 0, 12000, 200))
		}
		if selected("8f") {
			emit(set.FigOps("8f", 0, 12000, 200))
		}
		if selected("summary") {
			fmt.Println("# PWA summary (Fig. 8 aggregate)")
			fmt.Println(set.SummaryTable())
		}
	}
}
