package experiment

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/gram"
	"repro/internal/workload"
)

// TestSpecFromConfigRoundTrip pins the coordinator → worker hand-off:
// rendering a config to its wire form and resolving it back must
// preserve the fingerprint (the whole multi-node dedupe keys on it),
// for presets, inline workloads, custom grids, overrides and both
// background regimes.
func TestSpecFromConfigRoundTrip(t *testing.T) {
	wm, err := workload.SpecByName("Wm", 3)
	if err != nil {
		t.Fatal(err)
	}
	bg := PWABackground()
	cases := map[string]Config{
		"defaults": {
			Workload: smallWorkload("small", 10, 60, 1)(1),
			Grid:     smallGrid,
			Runs:     2,
			Seed:     1,
		},
		"preset-with-background": {
			Workload: wm,
			Policy:   "EGS",
			Approach: "PWA",
			Seed:     3,
		},
		"overrides": {
			Workload:            smallWorkload("ov", 5, 45, 0.5)(9),
			Grid:                smallGrid,
			Placement:           "CF",
			Runs:                3,
			Seed:                9,
			PollInterval:        7,
			SamplePeriod:        11,
			GrowthReserve:       2,
			Horizon:             9999,
			GramOverride:        &gram.Config{SubmitLatency: 1, ReleaseLatency: 2, SubmitConcurrency: 3},
			Background:          &bg,
			DisableMalleability: true,
		},
		"no-background": {
			Workload:     smallWorkload("nb", 4, 30, 1)(2),
			Grid:         smallGrid,
			NoBackground: true,
			Seed:         2,
		},
	}
	for name, cfg := range cases {
		want, err := Fingerprint(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec, err := SpecFromConfig(cfg)
		if err != nil {
			t.Fatalf("%s: SpecFromConfig: %v", name, err)
		}
		// The wire form must survive the strict decoder a worker runs.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded, err := DecodeConfigSpec(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: decode of own wire form: %v", name, err)
		}
		back, err := decoded.Config()
		if err != nil {
			t.Fatalf("%s: resolve of own wire form: %v", name, err)
		}
		got, err := Fingerprint(back)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: fingerprint changed across the wire: %s != %s", name, got, want)
		}
	}
}

// TestStreamResultFromSummary pins the remote result shim: accessors
// and Summary() read the precomputed wire summary, and re-encoding is
// byte-identical to the original.
func TestStreamResultFromSummary(t *testing.T) {
	cfg := Config{
		Workload: smallWorkload("small", 8, 60, 1)(1),
		Grid:     smallGrid,
		Runs:     2,
		Seed:     1,
	}
	local, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := local.Summary()
	remote := StreamResultFromSummary(cfg, sum)
	if remote.Jobs() != local.Jobs() || remote.Summary().Malleable != local.Summary().Malleable ||
		remote.Rejected() != local.Rejected() ||
		remote.MeanExecution() != local.MeanExecution() ||
		remote.MeanResponse() != local.MeanResponse() ||
		remote.MeanUtilization() != local.MeanUtilization() ||
		remote.TotalOps() != local.TotalOps() {
		t.Fatal("rebuilt result accessors diverge from the local result")
	}
	a, err := EncodeSummary(local.Summary())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSummary(remote.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("summary encoding changed through StreamResultFromSummary")
	}
}
