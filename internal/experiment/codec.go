package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/workload"
)

// This file gives Config a declarative JSON form so experiments can
// cross a process boundary (the koalad server accepts one per request).
// Two parts of Config cannot be serialized directly — the Grid closure
// and the preset workload constructors — so the wire form replaces them
// with data: a cluster list and a workload preset name or inline spec.
// The same normalization that resolves the wire form also yields a
// canonical fingerprint (Fingerprint) used as the content address of
// cached results: two configs hash equal exactly when they simulate the
// same thing, regardless of JSON key order, cosmetic names or execution
// knobs like Parallelism.

// ClusterSpec is the JSON form of one cluster of the grid.
type ClusterSpec struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
}

// GridSpec is the JSON form of the testbed: an ordered cluster list
// (order matters — placement policies tie-break in declaration order).
type GridSpec struct {
	Clusters []ClusterSpec `json:"clusters"`
}

// WorkloadSpec is the JSON form of the workload: either a paper preset
// by name (Wm, Wmr, W'm, W'mr) or an inline generation spec.
type WorkloadSpec struct {
	// Preset names one of the paper workloads; when set, every other
	// field must be absent.
	Preset string `json:"preset,omitempty"`

	Name              string  `json:"name,omitempty"`
	Jobs              int     `json:"jobs,omitempty"`
	InterArrival      float64 `json:"inter_arrival,omitempty"`
	PoissonArrivals   bool    `json:"poisson_arrivals,omitempty"`
	MalleableFraction float64 `json:"malleable_fraction,omitempty"`
	InitialSize       int     `json:"initial_size,omitempty"`
	RigidSize         int     `json:"rigid_size,omitempty"`
}

// GramSpec is the JSON form of a GRAM latency model override.
type GramSpec struct {
	SubmitLatency     float64 `json:"submit_latency"`
	ReleaseLatency    float64 `json:"release_latency"`
	SubmitConcurrency int     `json:"submit_concurrency"`
}

// BackgroundSpec is the JSON form of the background-load generator.
// The seed is not part of it: each replication derives the background
// seed from its own run seed.
type BackgroundSpec struct {
	MeanInterArrival float64 `json:"mean_inter_arrival"`
	MeanDuration     float64 `json:"mean_duration"`
	MaxNodes         int     `json:"max_nodes"`
}

// ConfigSpec is the declarative JSON form of a Config.
type ConfigSpec struct {
	Name                string          `json:"name,omitempty"`
	Workload            WorkloadSpec    `json:"workload"`
	Policy              string          `json:"policy,omitempty"`
	Approach            string          `json:"approach,omitempty"`
	Placement           string          `json:"placement,omitempty"`
	Runs                int             `json:"runs,omitempty"`
	Parallelism         int             `json:"parallelism,omitempty"`
	Seed                uint64          `json:"seed,omitempty"`
	PollInterval        float64         `json:"poll_interval,omitempty"`
	SamplePeriod        float64         `json:"sample_period,omitempty"`
	GrowthReserve       int             `json:"growth_reserve,omitempty"`
	Horizon             float64         `json:"horizon,omitempty"`
	Grid                *GridSpec       `json:"grid,omitempty"`
	Gram                *GramSpec       `json:"gram,omitempty"`
	Background          *BackgroundSpec `json:"background,omitempty"`
	NoBackground        bool            `json:"no_background,omitempty"`
	DisableMalleability bool            `json:"disable_malleability,omitempty"`
}

// DecodeConfigSpec strictly decodes a ConfigSpec from JSON: unknown
// fields are rejected (they almost always mean a typo in a knob name)
// and so is trailing garbage.
func DecodeConfigSpec(r io.Reader) (*ConfigSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec ConfigSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("experiment: decoding config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("experiment: trailing data after config object")
	}
	return &spec, nil
}

// resolveWorkload turns the wire workload into a generation spec.
func (w WorkloadSpec) resolve(seed uint64) (workload.Spec, error) {
	if w.Preset != "" {
		if w.Name != "" || w.Jobs != 0 || w.InterArrival != 0 || w.PoissonArrivals ||
			w.MalleableFraction != 0 || w.InitialSize != 0 || w.RigidSize != 0 {
			return workload.Spec{}, fmt.Errorf("experiment: workload preset %q excludes inline spec fields", w.Preset)
		}
		return workload.SpecByName(w.Preset, seed)
	}
	if w.Name == "" {
		return workload.Spec{}, fmt.Errorf("experiment: inline workload needs a name")
	}
	spec := workload.Spec{
		Name:              w.Name,
		Jobs:              w.Jobs,
		InterArrival:      w.InterArrival,
		PoissonArrivals:   w.PoissonArrivals,
		MalleableFraction: w.MalleableFraction,
		InitialSize:       w.InitialSize,
		RigidSize:         w.RigidSize,
		Seed:              seed,
	}
	if err := spec.Validate(); err != nil {
		return workload.Spec{}, err
	}
	return spec, nil
}

// resolveGrid turns the wire grid into the Config.Grid closure. The
// closure builds a fresh Multicluster per call, as Config requires.
func (g *GridSpec) resolve() (func() *cluster.Multicluster, error) {
	if g == nil {
		return nil, nil // withDefaults falls back to DAS-3
	}
	if len(g.Clusters) == 0 {
		return nil, fmt.Errorf("experiment: grid needs at least one cluster")
	}
	seen := make(map[string]bool, len(g.Clusters))
	for _, c := range g.Clusters {
		if c.Name == "" {
			return nil, fmt.Errorf("experiment: grid cluster needs a name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("experiment: duplicate grid cluster %q", c.Name)
		}
		seen[c.Name] = true
		if c.Nodes <= 0 {
			return nil, fmt.Errorf("experiment: grid cluster %q needs a positive node count", c.Name)
		}
	}
	clusters := append([]ClusterSpec(nil), g.Clusters...)
	return func() *cluster.Multicluster {
		cs := make([]*cluster.Cluster, len(clusters))
		for i, c := range clusters {
			cs[i] = cluster.New(c.Name, c.Nodes)
		}
		return cluster.NewMulticluster(cs...)
	}, nil
}

// Config builds the executable Config described by the spec, validating
// every name and parameter up front (the server rejects bad requests
// before admitting a run).
func (s *ConfigSpec) Config() (Config, error) {
	cfg := Config{
		Name:                s.Name,
		Policy:              s.Policy,
		Approach:            s.Approach,
		Placement:           s.Placement,
		Runs:                s.Runs,
		Parallelism:         s.Parallelism,
		Seed:                s.Seed,
		PollInterval:        s.PollInterval,
		SamplePeriod:        s.SamplePeriod,
		GrowthReserve:       s.GrowthReserve,
		Horizon:             s.Horizon,
		NoBackground:        s.NoBackground,
		DisableMalleability: s.DisableMalleability,
	}
	if s.Gram != nil {
		cfg.GramOverride = &gram.Config{
			SubmitLatency:     s.Gram.SubmitLatency,
			ReleaseLatency:    s.Gram.ReleaseLatency,
			SubmitConcurrency: s.Gram.SubmitConcurrency,
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	wl, err := s.Workload.resolve(s.Seed)
	if err != nil {
		return Config{}, err
	}
	cfg.Workload = wl
	grid, err := s.Grid.resolve()
	if err != nil {
		return Config{}, err
	}
	cfg.Grid = grid
	if s.Background != nil {
		if s.NoBackground {
			return Config{}, fmt.Errorf("experiment: background spec conflicts with no_background")
		}
		bg := workload.BackgroundSpec{
			MeanInterArrival: s.Background.MeanInterArrival,
			MeanDuration:     s.Background.MeanDuration,
			MaxNodes:         s.Background.MaxNodes,
		}
		if err := bg.Validate(); err != nil {
			return Config{}, err
		}
		cfg.Background = &bg
	}
	// Resolve defaults now so validation failures surface here, not
	// inside a worker goroutine mid-run.
	cfg = cfg.withDefaults()
	if _, ok := core.PolicyByName(cfg.Policy); !ok {
		return Config{}, fmt.Errorf("experiment: unknown policy %q", cfg.Policy)
	}
	if _, ok := core.ApproachByName(cfg.Approach); !ok {
		return Config{}, fmt.Errorf("experiment: unknown approach %q", cfg.Approach)
	}
	if _, err := koala.PolicyByName(cfg.Placement); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SpecFromConfig renders a config back into its wire form so a
// coordinator can ship it to a worker daemon. The spec is fully
// resolved — defaults applied, presets expanded into an inline
// workload, the grid evaluated into a cluster list — so round-tripping
// it through ConfigSpec.Config() on the worker yields a config with
// the same Fingerprint (and therefore the same simulated results).
// Parallelism is deliberately dropped: it does not change results, and
// each worker picks its own. A config Prepare would reject is rejected
// here too, before defaulting could rewrite its bad fields.
func SpecFromConfig(cfg Config) (ConfigSpec, error) {
	if err := cfg.validate(); err != nil {
		return ConfigSpec{}, err
	}
	cfg = cfg.withDefaults()
	spec := ConfigSpec{
		Name: cfg.Name,
		Workload: WorkloadSpec{
			Name:              cfg.Workload.Name,
			Jobs:              cfg.Workload.Jobs,
			InterArrival:      cfg.Workload.InterArrival,
			PoissonArrivals:   cfg.Workload.PoissonArrivals,
			MalleableFraction: cfg.Workload.MalleableFraction,
			InitialSize:       cfg.Workload.InitialSize,
			RigidSize:         cfg.Workload.RigidSize,
		},
		Policy:              cfg.Policy,
		Approach:            cfg.Approach,
		Placement:           cfg.Placement,
		Runs:                cfg.Runs,
		Seed:                cfg.Seed,
		PollInterval:        cfg.PollInterval,
		SamplePeriod:        cfg.SamplePeriod,
		GrowthReserve:       cfg.GrowthReserve,
		Horizon:             cfg.Horizon,
		DisableMalleability: cfg.DisableMalleability,
	}
	grid := cfg.Grid()
	if grid == nil {
		return ConfigSpec{}, fmt.Errorf("experiment: config grid returned nil")
	}
	gs := &GridSpec{}
	for _, c := range grid.Clusters() {
		gs.Clusters = append(gs.Clusters, ClusterSpec{Name: c.Name(), Nodes: c.Nodes()})
	}
	spec.Grid = gs
	if cfg.GramOverride != nil {
		spec.Gram = &GramSpec{
			SubmitLatency:     cfg.GramOverride.SubmitLatency,
			ReleaseLatency:    cfg.GramOverride.ReleaseLatency,
			SubmitConcurrency: cfg.GramOverride.SubmitConcurrency,
		}
	}
	// Post-defaults, a nil Background means "none" (withDefaults would
	// otherwise have filled in DefaultBackground) — say so explicitly,
	// or the worker's own defaulting would re-add it and change the
	// fingerprint.
	if cfg.Background != nil {
		spec.Background = &BackgroundSpec{
			MeanInterArrival: cfg.Background.MeanInterArrival,
			MeanDuration:     cfg.Background.MeanDuration,
			MaxNodes:         cfg.Background.MaxNodes,
		}
	} else {
		spec.NoBackground = true
	}
	return spec, nil
}

// canonicalConfig is the hashed form: only fields that change the
// simulation's outcome, fully resolved (defaults applied, presets
// expanded, grid evaluated), in a fixed field order. Name and
// Parallelism are deliberately absent — one is cosmetic, the other
// provably does not change results.
type canonicalConfig struct {
	Workload            canonicalWorkload `json:"workload"`
	Policy              string            `json:"policy"`
	Approach            string            `json:"approach"`
	Placement           string            `json:"placement"`
	Runs                int               `json:"runs"`
	Seed                uint64            `json:"seed"`
	PollInterval        float64           `json:"poll_interval"`
	SamplePeriod        float64           `json:"sample_period"`
	GrowthReserve       int               `json:"growth_reserve"`
	Horizon             float64           `json:"horizon"`
	Grid                []ClusterSpec     `json:"grid"`
	Gram                *GramSpec         `json:"gram,omitempty"`
	Background          *BackgroundSpec   `json:"background,omitempty"`
	DisableMalleability bool              `json:"disable_malleability"`
}

// canonicalWorkload is the resolved workload (presets expanded; the
// name stays — it prefixes job IDs, so it is not cosmetic).
type canonicalWorkload struct {
	Name              string  `json:"name"`
	Jobs              int     `json:"jobs"`
	InterArrival      float64 `json:"inter_arrival"`
	PoissonArrivals   bool    `json:"poisson_arrivals"`
	MalleableFraction float64 `json:"malleable_fraction"`
	InitialSize       int     `json:"initial_size"`
	RigidSize         int     `json:"rigid_size"`
}

// Fingerprint returns the canonical content hash of the experiment the
// config describes: a hex SHA-256 over the resolved semantic fields.
// Configs with equal fingerprints produce identical results (the
// simulation is deterministic in these fields), so the fingerprint is
// the key of koalad's content-addressed result cache.
func Fingerprint(cfg Config) (string, error) {
	spec, err := SpecFromConfig(cfg)
	if err != nil {
		return "", err
	}
	w := spec.Workload
	canon := canonicalConfig{
		Workload: canonicalWorkload{
			Name:              w.Name,
			Jobs:              w.Jobs,
			InterArrival:      w.InterArrival,
			PoissonArrivals:   w.PoissonArrivals,
			MalleableFraction: w.MalleableFraction,
			InitialSize:       w.InitialSize,
			RigidSize:         w.RigidSize,
		},
		Policy:              spec.Policy,
		Approach:            spec.Approach,
		Placement:           spec.Placement,
		Runs:                spec.Runs,
		Seed:                spec.Seed,
		PollInterval:        spec.PollInterval,
		SamplePeriod:        spec.SamplePeriod,
		GrowthReserve:       spec.GrowthReserve,
		Horizon:             spec.Horizon,
		Grid:                spec.Grid.Clusters,
		Gram:                spec.Gram,
		Background:          spec.Background,
		DisableMalleability: spec.DisableMalleability,
	}
	// encoding/json emits struct fields in declaration order, so the
	// bytes are canonical without any key sorting.
	b, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("experiment: fingerprinting config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
