package koala

import (
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/sim"
)

// testbed builds three small sites with the given node counts.
func testbed(t testing.TB, nodes ...int) (*sim.Engine, []*Site, *KIS) {
	t.Helper()
	e := sim.New()
	clusters := make([]*cluster.Cluster, len(nodes))
	for i, n := range nodes {
		clusters[i] = cluster.New(string(rune('A'+i)), n)
	}
	mc := cluster.NewMulticluster(clusters...)
	sites := BuildSites(e, mc, gram.DefaultConfig())
	return e, sites, NewKIS(e, sites)
}

func rigidSpec(id string, size int) JobSpec {
	return JobSpec{ID: id, Profile: app.RigidProfile("r", app.FTModel(), size), Size: size}
}

func malleableSpec(id string, prof *app.Profile, size int) JobSpec {
	return JobSpec{ID: id, Profile: prof, Size: size}
}

// placeAt runs one placement and returns the chosen site's name, or ""
// when the policy found no site.
func placeAt(p PlacementPolicy, spec JobSpec, snap Snapshot, sites []*Site) string {
	i, ok := p.Place(&spec, snap)
	if !ok {
		return ""
	}
	return sites[i].Name()
}

// TestWorstFitPicksLargestIdle pins WF's rule: the most idle site that
// fits, ties going to the site declared first.
func TestWorstFitPicksLargestIdle(t *testing.T) {
	for _, nodes := range [][]int{{10, 30, 20}, {10, 30, 30}} {
		_, sites, kis := testbed(t, nodes...)
		if got := placeAt(WorstFit{}, rigidSpec("j", 5), kis.Refresh(), sites); got != "B" {
			t.Errorf("grid %v: WF chose %q, want B", nodes, got)
		}
	}
}

func TestWorstFitFailsWhenNothingFits(t *testing.T) {
	_, sites, kis := testbed(t, 4, 4)
	if got := placeAt(WorstFit{}, rigidSpec("big", 8), kis.Refresh(), sites); got != "" {
		t.Fatalf("oversized placement went to %s", got)
	}
}

// TestCloseToFilesWithoutFilesFallsBackToIdle pins that CF places as WF:
// the model's jobs carry no input files, so only idleness decides.
func TestCloseToFilesWithoutFilesFallsBackToIdle(t *testing.T) {
	for _, nodes := range [][]int{{10, 30, 20}, {10, 30, 30}, {4, 4}, {85, 32, 41, 68, 46}} {
		_, sites, kis := testbed(t, nodes...)
		snap := kis.Refresh()
		for _, size := range []int{1, 5, 8, 40} {
			spec := rigidSpec("cf", size)
			if cf, wf := placeAt(CloseToFiles{}, spec, snap, sites), placeAt(WorstFit{}, spec, snap, sites); cf != wf {
				t.Errorf("grid %v, size %d: CF chose %q, WF %q", nodes, size, cf, wf)
			}
		}
	}
}

// TestClusterMinimizationBestFit pins CM's rule: the least idle site that
// fits, ties going to the site declared first.
func TestClusterMinimizationBestFit(t *testing.T) {
	for _, tc := range []struct {
		nodes []int
		size  int
		want  string
	}{
		{[]int{40, 20, 30}, 18, "B"},
		{[]int{40, 20, 30}, 25, "C"},
		{[]int{30, 40, 30}, 18, "A"},
		{[]int{12, 10, 8}, 13, ""},
	} {
		_, sites, kis := testbed(t, tc.nodes...)
		if got := placeAt(ClusterMinimization{}, rigidSpec("cm", tc.size), kis.Refresh(), sites); got != tc.want {
			t.Errorf("grid %v, size %d: CM chose %q, want %q", tc.nodes, tc.size, got, tc.want)
		}
	}
}

func TestFCMFallsBackToCMForUnsplittable(t *testing.T) {
	_, sites, kis := testbed(t, 40, 20, 30)
	snap := kis.Refresh()
	for _, spec := range []JobSpec{
		rigidSpec("r", 10), // profile Min > 1 → unsplittable
		malleableSpec("m", app.GadgetProfile(), 2),
	} {
		if fcm, cm := placeAt(FlexibleClusterMinimization{}, spec, snap, sites), placeAt(ClusterMinimization{}, spec, snap, sites); fcm != cm || fcm != "B" {
			t.Errorf("%s: FCM chose %q, CM %q; want both B", spec.ID, fcm, cm)
		}
	}
}

// TestFCMPlacesSizeOneRigidJobAsWorstFit pins the one job FCM may split:
// a size-1 rigid job, whose split is one chunk on the most idle site.
func TestFCMPlacesSizeOneRigidJobAsWorstFit(t *testing.T) {
	_, sites, kis := testbed(t, 10, 30, 30)
	snap := kis.Refresh()
	spec := rigidSpec("one", 1)
	if got := placeAt(FlexibleClusterMinimization{}, spec, snap, sites); got != "B" {
		t.Fatalf("FCM chose %q, want B (WF's choice)", got)
	}
	if got := placeAt(ClusterMinimization{}, spec, snap, sites); got != "A" {
		t.Fatalf("CM chose %q, want A", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"WF", "CF", "CM", "FCM", "wf", "cf", "cm", "fcm"} {
		p, err := PolicyByName(name)
		if err != nil || p == nil {
			t.Errorf("PolicyByName(%q) failed: %v", name, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy should fail")
	}
	if (WorstFit{}).Name() != "WF" || (CloseToFiles{}).Name() != "CF" ||
		(ClusterMinimization{}).Name() != "CM" || (FlexibleClusterMinimization{}).Name() != "FCM" {
		t.Fatal("policy names wrong")
	}
}

func TestKISSnapshotSeesBackgroundOnlyOnRefresh(t *testing.T) {
	_, sites, kis := testbed(t, 20, 20)
	snap := kis.Refresh()
	if snap.IdleAt(0) != 20 || snap.IdleAt(1) != 20 {
		t.Fatalf("fresh snapshot: %+v", snap)
	}
	sites[0].Cluster().SeizeBackground(8)
	if kis.Last().IdleAt(0) != 20 {
		t.Fatal("stale snapshot should not see background load")
	}
	if kis.Refresh().IdleAt(0) != 12 {
		t.Fatal("refresh should discover background load")
	}
}

// BenchmarkPlace measures one placement decision per policy: a size-2
// rigid job on a DAS-3-sized placement view.
func BenchmarkPlace(b *testing.B) {
	for _, p := range []PlacementPolicy{WorstFit{}, CloseToFiles{}, ClusterMinimization{}, FlexibleClusterMinimization{}} {
		b.Run(p.Name(), func(b *testing.B) {
			_, _, s := newSched(b, fastCfg(), 85, 32, 41, 68, 46)
			view := s.placementView()
			spec := rigidSpec("j", 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := p.Place(&spec, view); !ok {
					b.Fatal("placement failed")
				}
			}
		})
	}
}
