package koala

import "fmt"

// PlacementPolicy decides where a job runs (§IV-A). Place returns the index
// of the chosen site and true on success, or false when the job cannot be
// placed under the current snapshot. snap is indexed by Site.Index, so
// position i describes site i of the grid. Policies must not mutate or
// retain the snapshot (it may be backed by reusable scratch).
type PlacementPolicy interface {
	Name() string
	Place(spec *JobSpec, snap Snapshot) (int, bool)
}

// WorstFit places the job in the cluster with the largest number of idle
// processors (§IV-A), ties going to the site declared first. Its automatic
// load-balancing behaviour is the policy used in all of the paper's
// experiments.
type WorstFit struct{}

// Name implements PlacementPolicy.
func (WorstFit) Name() string { return "WF" }

// Place implements PlacementPolicy.
func (WorstFit) Place(spec *JobSpec, snap Snapshot) (int, bool) {
	best, bestIdle := -1, 0
	for i := 0; i < snap.Len(); i++ {
		if idle := snap.IdleAt(i); idle >= spec.Size && (best < 0 || idle > bestIdle) {
			best, bestIdle = i, idle
		}
	}
	return best, best >= 0
}

// CloseToFiles favours the sites that already hold a job's input files, then
// the sites to which moving them takes the least time, and among equally
// good candidates the most idle site (§IV-A, [20]). The model's jobs carry
// no input files, so every site costs the same transfer time and the policy
// places exactly as Worst-Fit does.
type CloseToFiles struct{}

// Name implements PlacementPolicy.
func (CloseToFiles) Name() string { return "CF" }

// Place implements PlacementPolicy.
func (CloseToFiles) Place(spec *JobSpec, snap Snapshot) (int, bool) {
	return WorstFit{}.Place(spec, snap)
}

// ClusterMinimization packs jobs into as few clusters as possible to reduce
// inter-cluster messages ([23]). A single-component job always fits in one
// cluster, so what remains is its best fit: the cluster whose idle count is
// smallest but sufficient, ties going to the site declared first, which
// keeps the larger holes for later jobs.
type ClusterMinimization struct{}

// Name implements PlacementPolicy.
func (ClusterMinimization) Name() string { return "CM" }

// Place implements PlacementPolicy.
func (ClusterMinimization) Place(spec *JobSpec, snap Snapshot) (int, bool) {
	best, bestIdle := -1, 0
	for i := 0; i < snap.Len(); i++ {
		if idle := snap.IdleAt(i); idle >= spec.Size && (best < 0 || idle < bestIdle) {
			best, bestIdle = i, idle
		}
	}
	return best, best >= 0
}

// FlexibleClusterMinimization is CM's flexible variant ([23]): it re-splits
// a job whose profile tolerates any component size (Min 1) over the
// clusters with the most idle processors, reducing queue time at the price
// of more components. Of the jobs the model can submit, only a size-1
// rigid job is splittable, and its split is one chunk on the most idle
// cluster: so FCM places a non-malleable job with Min ≤ 1 as Worst-Fit
// does, and every other job as CM does.
type FlexibleClusterMinimization struct{}

// Name implements PlacementPolicy.
func (FlexibleClusterMinimization) Name() string { return "FCM" }

// Place implements PlacementPolicy.
func (FlexibleClusterMinimization) Place(spec *JobSpec, snap Snapshot) (int, bool) {
	if spec.Profile.Min <= 1 && !spec.Malleable() {
		return WorstFit{}.Place(spec, snap)
	}
	return ClusterMinimization{}.Place(spec, snap)
}

// PolicyByName returns the placement policy with the given name.
func PolicyByName(name string) (PlacementPolicy, error) {
	switch name {
	case "WF", "wf":
		return WorstFit{}, nil
	case "CF", "cf":
		return CloseToFiles{}, nil
	case "CM", "cm":
		return ClusterMinimization{}, nil
	case "FCM", "fcm":
		return FlexibleClusterMinimization{}, nil
	default:
		return nil, fmt.Errorf("koala: unknown placement policy %q", name)
	}
}
