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
	return JobSpec{ID: id, Components: []ComponentSpec{{
		Profile: app.RigidProfile("r", app.FTModel(), size), Size: size,
	}}}
}

func malleableSpec(id string, prof *app.Profile, size int) JobSpec {
	return JobSpec{ID: id, Components: []ComponentSpec{{Profile: prof, Size: size}}}
}

func TestWorstFitPicksLargestIdle(t *testing.T) {
	_, sites, kis := testbed(t, 10, 30, 20)
	spec := rigidSpec("j", 5)
	pl, ok := WorstFit{}.Place(&spec, kis.Refresh(), sites)
	if !ok || len(pl) != 1 {
		t.Fatalf("placement failed: %v %v", pl, ok)
	}
	if pl[0].Site.Name() != "B" {
		t.Fatalf("WF chose %s, want B", pl[0].Site.Name())
	}
}

func TestWorstFitAccountsForEarlierComponents(t *testing.T) {
	_, sites, kis := testbed(t, 10, 12, 11)
	spec := JobSpec{ID: "co", Components: []ComponentSpec{
		{Profile: app.RigidProfile("r", app.FTModel(), 8), Size: 8},
		{Profile: app.RigidProfile("r", app.FTModel(), 8), Size: 8},
		{Profile: app.RigidProfile("r", app.FTModel(), 8), Size: 8},
	}}
	pl, ok := WorstFit{}.Place(&spec, kis.Refresh(), sites)
	if !ok {
		t.Fatal("placement failed")
	}
	// B(12) → first, then C(11), then A(10): three distinct clusters.
	names := map[string]bool{}
	for _, p := range pl {
		names[p.Site.Name()] = true
	}
	if len(names) != 3 {
		t.Fatalf("WF placements = %v", pl)
	}
}

func TestWorstFitFailsWhenNothingFits(t *testing.T) {
	_, sites, kis := testbed(t, 4, 4)
	spec := rigidSpec("big", 8)
	if _, ok := (WorstFit{}).Place(&spec, kis.Refresh(), sites); ok {
		t.Fatal("oversized placement should fail")
	}
}

func TestCloseToFilesPrefersReplicaSite(t *testing.T) {
	_, sites, kis := testbed(t, 30, 30, 30)
	sites[2].AddFile("input.dat")
	spec := JobSpec{ID: "cf", Components: []ComponentSpec{{
		Profile:    app.RigidProfile("r", app.FTModel(), 4),
		Size:       4,
		InputFiles: []File{{Name: "input.dat", Bytes: 10e9}},
	}}}
	pl, ok := CloseToFiles{}.Place(&spec, kis.Refresh(), sites)
	if !ok || pl[0].Site.Name() != "C" {
		t.Fatalf("CF chose %v, want C", pl)
	}
}

func TestCloseToFilesPrefersFasterTransferAmongMisses(t *testing.T) {
	_, sites, kis := testbed(t, 30, 30, 30)
	sites[0].SetTransferRate(10e6)
	sites[1].SetTransferRate(1000e6) // fastest inbound link
	sites[2].SetTransferRate(100e6)
	spec := JobSpec{ID: "cf", Components: []ComponentSpec{{
		Profile:    app.RigidProfile("r", app.FTModel(), 4),
		Size:       4,
		InputFiles: []File{{Name: "data", Bytes: 1e9}},
	}}}
	pl, ok := CloseToFiles{}.Place(&spec, kis.Refresh(), sites)
	if !ok || pl[0].Site.Name() != "B" {
		t.Fatalf("CF chose %v, want B", pl)
	}
}

func TestCloseToFilesWithoutFilesFallsBackToIdle(t *testing.T) {
	_, sites, kis := testbed(t, 10, 30, 20)
	spec := rigidSpec("nf", 5)
	pl, ok := CloseToFiles{}.Place(&spec, kis.Refresh(), sites)
	if !ok || pl[0].Site.Name() != "B" {
		t.Fatalf("CF chose %v, want B (most idle)", pl)
	}
}

func TestClusterMinimizationPacksOneCluster(t *testing.T) {
	_, sites, kis := testbed(t, 40, 20, 30)
	spec := JobSpec{ID: "cm", Components: []ComponentSpec{
		{Profile: app.RigidProfile("r", app.FTModel(), 10), Size: 10},
		{Profile: app.RigidProfile("r", app.FTModel(), 8), Size: 8},
	}}
	pl, ok := ClusterMinimization{}.Place(&spec, kis.Refresh(), sites)
	if !ok {
		t.Fatal("placement failed")
	}
	if pl[0].Site != pl[1].Site {
		t.Fatalf("CM split across clusters: %v", pl)
	}
	// Best fit: the smallest cluster that fits 18 total is B(20).
	if pl[0].Site.Name() != "B" {
		t.Fatalf("CM chose %s, want B", pl[0].Site.Name())
	}
}

func TestClusterMinimizationSpillsWhenNeeded(t *testing.T) {
	_, sites, kis := testbed(t, 12, 10, 8)
	spec := JobSpec{ID: "cm2", Components: []ComponentSpec{
		{Profile: app.RigidProfile("r", app.FTModel(), 10), Size: 10},
		{Profile: app.RigidProfile("r", app.FTModel(), 9), Size: 9},
	}}
	pl, ok := ClusterMinimization{}.Place(&spec, kis.Refresh(), sites)
	if !ok {
		t.Fatal("placement failed")
	}
	if pl[0].Site == pl[1].Site {
		t.Fatal("components cannot share a cluster here")
	}
}

func TestFCMSplitsAcrossIdleClusters(t *testing.T) {
	_, sites, kis := testbed(t, 10, 6, 4)
	spec := JobSpec{ID: "fcm", Components: []ComponentSpec{{
		Profile: app.MoldableProfile("m", app.FTModel(), 1, 64), Size: 18,
	}}}
	pl, ok := FlexibleClusterMinimization{}.Place(&spec, kis.Refresh(), sites)
	if !ok {
		t.Fatal("placement failed")
	}
	total := 0
	for _, p := range pl {
		total += p.Size
	}
	if total != 18 {
		t.Fatalf("FCM chunks sum to %d, want 18", total)
	}
	if len(pl) != 3 {
		t.Fatalf("FCM used %d clusters, want 3 (10+6+2)", len(pl))
	}
	if pl[0].Size != 10 || pl[1].Size != 6 || pl[2].Size != 2 {
		t.Fatalf("FCM chunks = %v", pl)
	}
}

func TestFCMFallsBackToCMForUnsplittable(t *testing.T) {
	_, sites, kis := testbed(t, 40, 20, 30)
	spec := rigidSpec("r", 10) // profile Min > 1 → unsplittable
	pl, ok := FlexibleClusterMinimization{}.Place(&spec, kis.Refresh(), sites)
	if !ok || len(pl) != 1 {
		t.Fatalf("fallback failed: %v", pl)
	}
}

func TestFCMFailsWhenTotalUnavailable(t *testing.T) {
	_, sites, kis := testbed(t, 4, 4)
	spec := JobSpec{ID: "fcm", Components: []ComponentSpec{{
		Profile: app.MoldableProfile("m", app.FTModel(), 1, 64), Size: 18,
	}}}
	if _, ok := (FlexibleClusterMinimization{}).Place(&spec, kis.Refresh(), sites); ok {
		t.Fatal("FCM should fail when total idle is insufficient")
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
	if snap.IdleAt(0) != 20 || snap.TotalIdle() != 40 {
		t.Fatalf("fresh snapshot: %+v", snap)
	}
	sites[0].Cluster().SeizeBackground(8)
	if kis.Last().IdleAt(0) != 20 {
		t.Fatal("stale snapshot should not see background load")
	}
	if kis.Refresh().IdleAt(0) != 12 {
		t.Fatal("refresh should discover background load")
	}
	if kis.Refreshes() < 3 {
		t.Fatalf("refreshes = %d", kis.Refreshes())
	}
}
