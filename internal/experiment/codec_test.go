package experiment

import (
	"strings"
	"testing"
)

func decodeSpec(t *testing.T, js string) *ConfigSpec {
	t.Helper()
	spec, err := DecodeConfigSpec(strings.NewReader(js))
	if err != nil {
		t.Fatalf("DecodeConfigSpec(%s): %v", js, err)
	}
	return spec
}

func TestDecodeConfigSpecRejectsUnknownFields(t *testing.T) {
	_, err := DecodeConfigSpec(strings.NewReader(`{"workload":{"preset":"Wm"},"polcy":"EGS"}`))
	if err == nil {
		t.Fatal("misspelled field accepted")
	}
	_, err = DecodeConfigSpec(strings.NewReader(`{"workload":{"preset":"Wm"}} trailing`))
	if err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestConfigSpecPresetWorkload(t *testing.T) {
	spec := decodeSpec(t, `{"workload":{"preset":"Wmr"},"policy":"EGS","runs":2,"seed":9}`)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Name != "Wmr" || cfg.Workload.Jobs != 300 || cfg.Workload.MalleableFraction != 0.5 {
		t.Fatalf("preset did not resolve: %+v", cfg.Workload)
	}
	if cfg.Policy != "EGS" || cfg.Runs != 2 || cfg.Seed != 9 {
		t.Fatalf("fields not carried: %+v", cfg)
	}
	// Defaults resolved by Config().
	if cfg.Approach != "PRA" || cfg.Placement != "WF" || cfg.Background == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Grid == nil || cfg.Grid().TotalNodes() != 272 {
		t.Fatal("default grid is not DAS-3")
	}
}

func TestConfigSpecInlineWorkloadAndGrid(t *testing.T) {
	spec := decodeSpec(t, `{
		"workload": {"name":"tiny","jobs":4,"inter_arrival":30,"malleable_fraction":1,"initial_size":2,"rigid_size":2},
		"grid": {"clusters":[{"name":"A","nodes":48},{"name":"B","nodes":32}]},
		"no_background": true
	}`)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.Jobs != 4 || cfg.Workload.InterArrival != 30 {
		t.Fatalf("inline workload not carried: %+v", cfg.Workload)
	}
	g := cfg.Grid()
	if g.TotalNodes() != 80 || g.Clusters()[0].Name() != "A" {
		t.Fatalf("grid not built: %v", g)
	}
	if g == cfg.Grid() {
		t.Fatal("Grid closure must build a fresh Multicluster per call")
	}
	if cfg.Background != nil {
		t.Fatal("no_background did not disable background load")
	}
	// The built config is directly runnable.
	res, err := runSeed(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(res.Records))
	}
}

// TestZeroGramOverrideRunsZeroLatencies pins that a "gram":{} override
// runs the zero-latency GRAM model it asks for (and is fingerprinted as),
// not the default one: on an idle grid every job starts the moment it is
// submitted, where the default's 5 s submission latency delays each one.
func TestZeroGramOverrideRunsZeroLatencies(t *testing.T) {
	const tiny = `"workload":{"name":"tiny","jobs":4,"inter_arrival":30,"malleable_fraction":1,"initial_size":2,"rigid_size":2},` +
		`"grid":{"clusters":[{"name":"A","nodes":48}]},"no_background":true`
	for _, tc := range []struct {
		gram string
		wait float64
	}{{"", 5}, {`,"gram":{}`, 0}} {
		cfg, err := decodeSpec(t, "{"+tiny+tc.gram+"}").Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := runSeed(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Records {
			if r.WaitTime != tc.wait {
				t.Errorf("gram override %q: job %s waited %g s, want %g", tc.gram, r.ID, r.WaitTime, tc.wait)
			}
		}
	}
}

func TestConfigSpecValidation(t *testing.T) {
	bad := []string{
		`{"workload":{"preset":"NOPE"}}`,
		`{"workload":{"preset":"Wm","jobs":10}}`,
		`{"workload":{"name":"x","jobs":0,"inter_arrival":30,"initial_size":2,"rigid_size":2}}`,
		`{"workload":{"jobs":10,"inter_arrival":30,"initial_size":2,"rigid_size":2}}`,
		`{"workload":{"preset":"Wm"},"policy":"NOPE"}`,
		`{"workload":{"preset":"Wm"},"approach":"NOPE"}`,
		`{"workload":{"preset":"Wm"},"approach":"MANUAL"}`,
		`{"workload":{"preset":"Wm"},"placement":"NOPE"}`,
		`{"workload":{"preset":"Wm"},"grid":{"clusters":[]}}`,
		`{"workload":{"preset":"Wm"},"grid":{"clusters":[{"name":"A","nodes":0}]}}`,
		`{"workload":{"preset":"Wm"},"grid":{"clusters":[{"name":"A","nodes":4},{"name":"A","nodes":4}]}}`,
		`{"workload":{"preset":"Wm"},"runs":-1}`,
		`{"workload":{"preset":"Wm"},"background":{"mean_inter_arrival":0,"mean_duration":10,"max_nodes":4}}`,
		`{"workload":{"preset":"Wm"},"no_background":true,"background":{"mean_inter_arrival":10,"mean_duration":10,"max_nodes":4}}`,
	}
	for _, js := range bad {
		spec, err := DecodeConfigSpec(strings.NewReader(js))
		if err != nil {
			continue // rejected at decode time is fine too
		}
		if _, err := spec.Config(); err == nil {
			t.Errorf("invalid spec accepted: %s", js)
		}
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	// Key order, cosmetic name and parallelism must not change the hash.
	a := decodeSpec(t, `{"workload":{"preset":"Wm"},"policy":"FPSMA","seed":3}`)
	b := decodeSpec(t, `{"seed":3,"policy":"FPSMA","workload":{"preset":"Wm"},"name":"pretty","parallelism":7}`)
	ca, err := a.Config()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	ha, err := Fingerprint(ca)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Fingerprint(cb)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent configs hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex sha256", ha)
	}

	// A preset and its spelled-out spec are the same experiment.
	inline := decodeSpec(t, `{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"policy":"FPSMA","seed":3}`)
	ci, err := inline.Config()
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Fingerprint(ci)
	if err != nil {
		t.Fatal(err)
	}
	if hi != ha {
		t.Errorf("preset and inline equivalent hash differently: %s vs %s", hi, ha)
	}
}

func TestFingerprintSeparatesSemanticChanges(t *testing.T) {
	base := `{"workload":{"preset":"Wm"},"seed":3}`
	variants := []string{
		`{"workload":{"preset":"Wm"},"seed":4}`,
		`{"workload":{"preset":"Wmr"},"seed":3}`,
		`{"workload":{"preset":"Wm"},"seed":3,"policy":"EGS"}`,
		`{"workload":{"preset":"Wm"},"seed":3,"approach":"PWA"}`,
		`{"workload":{"preset":"Wm"},"seed":3,"runs":8}`,
		`{"workload":{"preset":"Wm"},"seed":3,"no_background":true}`,
		`{"workload":{"preset":"Wm"},"seed":3,"disable_malleability":true}`,
		`{"workload":{"preset":"Wm"},"seed":3,"grid":{"clusters":[{"name":"A","nodes":48}]}}`,
		`{"workload":{"preset":"Wm"},"seed":3,"gram":{"submit_latency":9,"release_latency":1,"submit_concurrency":2}}`,
		`{"workload":{"preset":"Wm"},"seed":3,"placement":"CM"}`,
		`{"workload":{"preset":"Wm"},"seed":3,"poll_interval":5}`,
		`{"workload":{"preset":"Wm"},"seed":3,"sample_period":5}`,
		`{"workload":{"preset":"Wm"},"seed":3,"growth_reserve":2}`,
		`{"workload":{"preset":"Wm"},"seed":3,"horizon":1000}`,
		`{"workload":{"preset":"Wm"},"seed":3,"background":{"mean_inter_arrival":60,"mean_duration":480,"max_nodes":24}}`,
		// The inline form of Wm (wmInline) with one field changed each.
		`{"workload":{"name":"Wx","jobs":300,"inter_arrival":120,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":299,"inter_arrival":120,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":300,"inter_arrival":121,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"poisson_arrivals":true,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"malleable_fraction":0.5,"initial_size":2,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"malleable_fraction":1,"initial_size":4,"rigid_size":2},"seed":3}`,
		`{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"malleable_fraction":1,"initial_size":2,"rigid_size":4},"seed":3}`,
	}
	cfg, err := decodeSpec(t, base).Config()
	if err != nil {
		t.Fatal(err)
	}
	h0, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The inline variants differ from the base in their one field only:
	// Wm's inline form hashes like the preset.
	const wmInline = `{"workload":{"name":"Wm","jobs":300,"inter_arrival":120,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"seed":3}`
	icfg, err := decodeSpec(t, wmInline).Config()
	if err != nil {
		t.Fatal(err)
	}
	if h, err := Fingerprint(icfg); err != nil || h != h0 {
		t.Fatalf("inline Wm hashes %s (%v), preset Wm %s", h, err, h0)
	}
	for _, js := range variants {
		vcfg, err := decodeSpec(t, js).Config()
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		h, err := Fingerprint(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		if h == h0 {
			t.Errorf("semantic change not reflected in hash: %s", js)
		}
	}
}

func TestFingerprintOfCodeBuiltConfig(t *testing.T) {
	// Fingerprint also works for configs assembled in Go (the batch
	// path), evaluating the Grid closure to canonical cluster specs.
	cfg := Config{Workload: smallWorkload("w", 4, 30, 1)(3), Grid: smallGrid, Seed: 3, Runs: 1}
	h1, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("fingerprint is not stable across calls")
	}
}
