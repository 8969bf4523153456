package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gram"
	"repro/internal/workload"
)

// TestPreparedBatchedMatchesSingleShot pins the batched-replication
// contract byte-for-byte: one Prepared shared across several seeds must
// produce exactly the results of a fresh single-shot RunOnce per seed,
// for every malleability policy × approach and every placement policy
// (the same matrix the golden file pins). Any seed-dependent state
// leaking into Prepared — a mutated workload spec, a reused collector,
// a shared RNG — shows up here as a byte diff.
func TestPreparedBatchedMatchesSingleShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full replication matrix")
	}
	for _, cfg := range goldenCombos() {
		prep, err := Prepare(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, seed := range []uint64{1, 42, 7} {
			batched, err := prep.RunOnce(seed)
			if err != nil {
				t.Fatalf("%s seed %d (batched): %v", cfg.Name, seed, err)
			}
			single, err := runSeed(cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d (single): %v", cfg.Name, seed, err)
			}
			bb := marshalResult(t, batched)
			sb := marshalResult(t, single)
			if !bytes.Equal(bb, sb) {
				t.Errorf("%s seed %d: batched result diverged from single-shot:\nbatched: %s\nsingle:  %s",
					cfg.Name, seed, bb, sb)
			}
		}
	}
}

// marshalResult renders the determinism surface of a run (the same
// fields the golden file pins) to canonical JSON for byte comparison.
func marshalResult(t *testing.T, res *RunResult) []byte {
	t.Helper()
	g := goldenRun{
		Records:  res.Records,
		Rejected: res.Rejected,
		Makespan: res.Makespan,
		TotalOps: res.TotalOps,
		UtilLen:  res.Utilization.Len(),
		GrowLen:  res.GrowOps.Len(),
	}
	if res.Makespan > 0 {
		g.UtilMean = res.Utilization.MeanOver(0, res.Makespan)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPreparedReplicationsAllocateLess pins the point of batching: a
// replication through a shared Prepared must allocate strictly less
// than a single-shot RunOnce, because the per-point setup (spec
// validation, workload preparation with its rendered job IDs) is paid
// once instead of per seed. A regression here means
// setup work crept back into the per-seed path.
func TestPreparedReplicationsAllocateLess(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement runs full simulations")
	}
	cfg := Config{
		Name:     "alloc",
		Workload: func() workload.Spec { s := workload.Wm(1); s.Jobs = 30; return s }(),
		Policy:   "EGS",
		Approach: "PRA",
	}
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths so lazy package state doesn't skew the counts.
	if _, err := prep.RunOnce(1); err != nil {
		t.Fatal(err)
	}
	if _, err := runSeed(cfg, 1); err != nil {
		t.Fatal(err)
	}

	var seed uint64
	batched := testing.AllocsPerRun(5, func() {
		seed++
		if _, err := prep.RunOnce(seed); err != nil {
			t.Error(err)
		}
	})
	seed = 0
	single := testing.AllocsPerRun(5, func() {
		seed++
		if _, err := runSeed(cfg, seed); err != nil {
			t.Error(err)
		}
	})
	if batched >= single {
		t.Errorf("batched replication allocates %.0f allocs/run, single-shot %.0f — sharing setup saved nothing", batched, single)
	}
	t.Logf("allocs/run: batched %.0f, single-shot %.0f", batched, single)
}

// TestPrepareRejectsNegativeFields pins the library front doors: Prepare
// and the two sweep drivers reject every out-of-range field before
// defaults could rewrite it (a negative poll interval used to run at the
// default, negative runs ran four replications), with the message
// koalad answers the same field with.
func TestPrepareRejectsNegativeFields(t *testing.T) {
	ctx := context.Background()
	sweeps := map[string]func(Config) error{
		"RunSet":       func(c Config) error { _, err := RunSet("PRA", PRACombos(), c); return err },
		"RunSetStream": func(c Config) error { _, err := RunSetStream(ctx, "PRA", PRACombos(), c); return err },
	}
	cases := []struct {
		wire string
		mut  func(*Config)
	}{
		{`"runs":-3`, func(c *Config) { c.Runs = -3 }},
		{`"poll_interval":-5`, func(c *Config) { c.PollInterval = -5 }},
		{`"sample_period":-1`, func(c *Config) { c.SamplePeriod = -1 }},
		{`"horizon":-1`, func(c *Config) { c.Horizon = -1 }},
		{`"growth_reserve":-1`, func(c *Config) { c.GrowthReserve = -1 }},
		{`"gram":{"submit_latency":-1}`, func(c *Config) { c.GramOverride = &gram.Config{SubmitLatency: -1} }},
		{`"gram":{"release_latency":-1}`, func(c *Config) { c.GramOverride = &gram.Config{ReleaseLatency: -1} }},
		{`"gram":{"submit_concurrency":-1}`, func(c *Config) { c.GramOverride = &gram.Config{SubmitConcurrency: -1} }},
	}
	for _, tc := range cases {
		cfg := Config{Workload: smallWorkload("w", 4, 30, 1)(3), Grid: smallGrid, NoBackground: true}
		tc.mut(&cfg)
		_, err := Prepare(cfg)
		if err == nil {
			t.Errorf("%s: Prepare accepted the config", tc.wire)
			continue
		}
		spec, derr := DecodeConfigSpec(strings.NewReader(`{"workload":{"preset":"Wm"},` + tc.wire + `}`))
		if derr != nil {
			t.Fatal(derr)
		}
		if _, werr := spec.Config(); werr == nil || werr.Error() != err.Error() {
			t.Errorf("%s: Prepare says %q, the wire form %v", tc.wire, err, werr)
		}
		for name, run := range sweeps {
			if serr := run(cfg); serr == nil || serr.Error() != err.Error() {
				t.Errorf("%s: Prepare says %q, %s %v", tc.wire, err, name, serr)
			}
		}
	}
}
