package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// The golden file pins RunOnce byte-for-byte across refactors of the hot
// path (event pooling, slice-backed snapshots, incremental scheduler
// indexes): the simulation must produce *identical* records — float for
// float — to the pre-refactor engine for every malleability policy × both
// approaches, and for every placement policy. Regenerate only when a change
// is *meant* to alter results:
//
//	go test ./internal/experiment -run TestRunOnceMatchesGoldens -update-goldens
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/runonce_goldens.json from the current engine")

const goldenPath = "testdata/runonce_goldens.json"

// goldenRun is the determinism surface of one seeded run: every per-job
// record plus the scalar aggregates and a shape pin of the sampled series.
type goldenRun struct {
	Name     string              `json:"name"`
	Records  []metrics.JobRecord `json:"records"`
	Rejected int                 `json:"rejected"`
	Makespan float64             `json:"makespan"`
	TotalOps float64             `json:"total_ops"`
	UtilLen  int                 `json:"util_len"`
	UtilMean float64             `json:"util_mean"`
	GrowLen  int                 `json:"grow_len"`
}

// goldenCombos enumerates the pinned configurations: the four malleability
// policies × both job-management approaches on a shortened Wm, and the four
// placement policies on a shortened Wmr.
func goldenCombos() []Config {
	shorten := func(s workload.Spec) workload.Spec {
		s.Jobs = 60
		return s
	}
	var combos []Config
	for _, approach := range []string{"PRA", "PWA"} {
		for _, policy := range []string{"FPSMA", "EGS", "EQUI", "FOLD"} {
			combos = append(combos, Config{
				Name:     approach + "/" + policy,
				Workload: shorten(workload.Wm(1)),
				Policy:   policy,
				Approach: approach,
			})
		}
	}
	for _, placement := range []string{"WF", "CF", "CM", "FCM"} {
		combos = append(combos, Config{
			Name:      "placement/" + placement,
			Workload:  shorten(workload.Wmr(1)),
			Policy:    "FPSMA",
			Approach:  "PRA",
			Placement: placement,
		})
	}
	return combos
}

func goldenOf(t *testing.T, cfg Config) goldenRun {
	t.Helper()
	res, err := runSeed(cfg, 42)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	g := goldenRun{
		Name:     cfg.Name,
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
	if res.MeanUtilization != g.UtilMean {
		t.Errorf("%s: folded mean utilisation %v, series mean %v", cfg.Name, res.MeanUtilization, g.UtilMean)
	}
	return g
}

func TestRunOnceMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are full simulations")
	}
	combos := goldenCombos()
	got := make([]goldenRun, len(combos))
	for i, cfg := range combos {
		got[i] = goldenOf(t, cfg)
	}

	if *updateGoldens {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden runs to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-goldens): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d runs, want %d (regenerate with -update-goldens)", len(want), len(got))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("combo %d is %q, golden is %q", i, got[i].Name, want[i].Name)
		}
		if len(got[i].Records) != len(want[i].Records) {
			t.Errorf("%s: %d records, golden has %d", got[i].Name, len(got[i].Records), len(want[i].Records))
			continue
		}
		for r := range want[i].Records {
			if !reflect.DeepEqual(got[i].Records[r], want[i].Records[r]) {
				t.Errorf("%s: record %d diverged:\n got %+v\nwant %+v", got[i].Name, r, got[i].Records[r], want[i].Records[r])
				break
			}
		}
		g, w := got[i], want[i]
		g.Records, w.Records = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: aggregates diverged:\n got %+v\nwant %+v", got[i].Name, g, w)
		}
	}
}
