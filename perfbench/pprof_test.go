package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func TestBucketOfFixedSymbols(t *testing.T) {
	cases := []struct {
		stack []string // innermost frame first
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"repro/internal/koala.(*Scheduler).place.func1", "repro/internal/sim.(*Engine).Run"}, "koala"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/core.(*Manager).grow", "repro/internal/sim.(*Engine).Run"}, "core"},
		{[]string{"encoding/json.Marshal", "repro/internal/server.writeJSON", "net/http.HandlerFunc.ServeHTTP"}, "server"},
		{[]string{"repro/internal/store/internal.x"}, "store"},
		{[]string{"repro/internal/buildinfo.String", "repro/internal/server.(*Server).handleHealthz"}, "unattributed"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*connReader).backgroundRead"}, "http"},
		{[]string{"crypto/sha256.block", "main.main", "runtime.main"}, "unattributed"},
		{nil, "unattributed"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	if got := layerOfFunc("repro/internal/experiment.RunSet"); got != "experiment" {
		t.Errorf("layerOfFunc = %q", got)
	}
	if got := layerOfFunc("repro/perfbench.main"); got != "" {
		t.Errorf("layerOfFunc of a non-internal symbol = %q, want none", got)
	}
}

// TestFoldRealProfile profiles real replications and checks that the
// decoder reads the profile, that the buckets partition its total, and
// that simulator samples land in simulator layers.
func TestFoldRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a few hundred milliseconds")
	}
	p, err := experiment.Prepare(experiment.Config{Workload: workload.Wm(1), Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for seed, start := uint64(1), time.Now(); time.Since(start) < 400*time.Millisecond; seed++ {
		if _, err := p.RunOnce(seed); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	fold, err := foldCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if fold.TotalNs <= 0 {
		t.Fatal("profile holds no CPU samples")
	}
	var sum int64
	for _, ns := range fold.Buckets {
		sum += ns
	}
	if sum != fold.TotalNs {
		t.Fatalf("buckets sum to %d ns, profile total %d ns", sum, fold.TotalNs)
	}
	// Among the samples attributed to repo layers, a replication's are
	// mostly the simulator's. (Race-instrumented builds add samples with
	// no Go frame, so the share of the whole profile is not checked.)
	if sim, repo := fold.sumNs(simLayers...), fold.sumNs(repoLayers...); sim*2 < repo {
		t.Fatalf("simulator layers hold %d of %d repo-layer ns; want most (buckets %v)", sim, repo, fold.Buckets)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldCPUProfile([]byte{0x1f, 0x8b, 0, 1}); err == nil {
		t.Fatal("expected an error for a truncated gzip stream")
	}
	if _, err := foldCPUProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Fatal("expected an error for a truncated message")
	}
}
