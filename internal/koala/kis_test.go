package koala

import "testing"

// TestRefreshDoesNotAliasPreviousSnapshot pins the double-buffer contract:
// the snapshot returned by one Refresh keeps its values when the *next*
// Refresh reuses pooled storage.
func TestRefreshDoesNotAliasPreviousSnapshot(t *testing.T) {
	_, sites, kis := testbed(t, 20, 30)
	snap1 := kis.Refresh()
	if snap1.IdleAt(0) != 20 || snap1.IdleAt(1) != 30 {
		t.Fatalf("snap1 = %+v", snap1)
	}
	sites[0].Cluster().SeizeBackground(8)
	snap2 := kis.Refresh()
	if snap2.IdleAt(0) != 12 {
		t.Fatalf("snap2.IdleAt(0) = %d, want 12", snap2.IdleAt(0))
	}
	// snap1 must be untouched by snap2's buffer reuse.
	if snap1.IdleAt(0) != 20 || snap1.IdleAt(1) != 30 {
		t.Fatalf("previous snapshot mutated by Refresh: %+v", snap1)
	}
}

func TestRefreshIsAllocationFree(t *testing.T) {
	_, _, kis := testbed(t, 20, 30, 40)
	allocs := testing.AllocsPerRun(100, func() {
		kis.Refresh()
	})
	if allocs > 0 {
		t.Fatalf("Refresh allocates %.1f objects, want 0", allocs)
	}
}

func TestSnapshotIndexAccessors(t *testing.T) {
	snap := Snapshot{Time: 7, procs: []ProcessorInfo{{Total: 8, Idle: 3}, {Total: 4, Idle: 4}}}
	if snap.Len() != 2 || snap.Time != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.IdleAt(1) != 4 || snap.At(0).Total != 8 {
		t.Fatal("index accessors wrong")
	}
}

// TestBuildSitesIndexesClustersInOrder pins the one site key: cluster i
// of the grid is the site with index i.
func TestBuildSitesIndexesClustersInOrder(t *testing.T) {
	_, sites, _ := testbed(t, 10, 20, 30)
	for i, s := range sites {
		if s.Index() != i || s.Name() != string(rune('A'+i)) {
			t.Fatalf("sites[%d] = %s with index %d", i, s.Name(), s.Index())
		}
	}
}

// TestPlacementViewIsAllocationFree pins that a placement attempt's
// adjusted view reuses the scheduler's scratch buffer.
func TestPlacementViewIsAllocationFree(t *testing.T) {
	_, _, s := newSched(t, fastCfg(), 16, 16)
	allocs := testing.AllocsPerRun(100, func() {
		s.placementView()
	})
	if allocs > 0 {
		t.Fatalf("placementView allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkSnapshotRefresh measures the KIS polling cost over the DAS-3
// scale (five sites), the per-tick unit of work of the §V-B loop.
func BenchmarkSnapshotRefresh(b *testing.B) {
	_, _, kis := testbed(b, 85, 32, 41, 68, 46)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		snap := kis.Refresh()
		total += snap.IdleAt(0)
	}
	_ = total
}

// BenchmarkPlacementView measures the claims-adjusted snapshot built for
// every placement attempt.
func BenchmarkPlacementView(b *testing.B) {
	_, _, s := newSched(b, fastCfg(), 85, 32, 41, 68, 46)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.placementView()
	}
}
