package koala

import (
	"fmt"
	"sort"
)

// ComponentPlacement is one placement decision: component index, target
// site, and the processor count to start with there. Policies that split
// jobs (FCM) may return more placements than the spec has components, with
// Component set to the index of the spec component each chunk derives from.
type ComponentPlacement struct {
	Component int
	Site      *Site
	Size      int
}

// PlacementPolicy decides where job components run (§IV-A). Place returns
// the placements and true on success, or nil and false when the job cannot
// be placed under the current snapshot. sites is the grid in site-index
// order and snap is indexed by Site.Index, so position i of snap describes
// sites[i]. Policies must not mutate or retain the
// snapshot (it may be backed by reusable scratch) and must account for
// their own placements when placing multiple components (a component
// consumes idle processors for subsequent ones).
type PlacementPolicy interface {
	Name() string
	Place(spec *JobSpec, snap Snapshot, sites []*Site) ([]ComponentPlacement, bool)
}

// siteView tracks remaining idle processors during a multi-component
// placement.
type siteView struct {
	site *Site
	idle int
	used bool // this job already placed a component here (CM)
}

func newViews(snap Snapshot, sites []*Site) []siteView {
	views := make([]siteView, len(sites))
	for i, s := range sites {
		views[i] = siteView{site: s, idle: snap.IdleAt(i)}
	}
	return views
}

// WorstFit places each component in the cluster with the largest number of
// idle processors (§IV-A). Its automatic load-balancing behaviour is the
// policy used in all of the paper's experiments.
type WorstFit struct{}

// Name implements PlacementPolicy.
func (WorstFit) Name() string { return "WF" }

// Place implements PlacementPolicy.
func (WorstFit) Place(spec *JobSpec, snap Snapshot, sites []*Site) ([]ComponentPlacement, bool) {
	if len(spec.Components) == 1 {
		// Single-component fast path (every job of the paper's malleable
		// workloads): no mutable views needed, scan the snapshot directly.
		size := spec.Components[0].Size
		best := -1
		bestIdle := 0
		for i := range sites {
			if idle := snap.IdleAt(i); idle >= size && (best < 0 || idle > bestIdle) {
				best = i
				bestIdle = idle
			}
		}
		if best < 0 {
			return nil, false
		}
		return []ComponentPlacement{{Component: 0, Site: sites[best], Size: size}}, true
	}
	views := newViews(snap, sites)
	placements := make([]ComponentPlacement, 0, len(spec.Components))
	for ci, comp := range spec.Components {
		// Pick the view with the most idle processors; ties break on site
		// declaration order for determinism.
		var best *siteView
		for i := range views {
			v := &views[i]
			if v.idle >= comp.Size && (best == nil || v.idle > best.idle) {
				best = v
			}
		}
		if best == nil {
			return nil, false
		}
		best.idle -= comp.Size
		placements = append(placements, ComponentPlacement{Component: ci, Site: best.site, Size: comp.Size})
	}
	return placements, true
}

// CloseToFiles favours sites that already hold the component's input files,
// then sites for which transferring those files takes the least time (§IV-A,
// [20]). Among equally good candidates it prefers the most idle site.
type CloseToFiles struct{}

// Name implements PlacementPolicy.
func (CloseToFiles) Name() string { return "CF" }

// transferTime estimates how long moving the missing input files to site v
// would take.
func transferTime(comp ComponentSpec, v *siteView) float64 {
	var bytes float64
	for _, f := range comp.InputFiles {
		if !v.site.HasFile(f.Name) {
			bytes += f.Bytes
		}
	}
	return bytes / v.site.TransferRate()
}

// Place implements PlacementPolicy.
func (CloseToFiles) Place(spec *JobSpec, snap Snapshot, sites []*Site) ([]ComponentPlacement, bool) {
	views := newViews(snap, sites)
	placements := make([]ComponentPlacement, 0, len(spec.Components))
	for ci, comp := range spec.Components {
		candidates := make([]*siteView, 0, len(views))
		for i := range views {
			if views[i].idle >= comp.Size {
				candidates = append(candidates, &views[i])
			}
		}
		if len(candidates) == 0 {
			return nil, false
		}
		comp := comp
		sort.SliceStable(candidates, func(a, b int) bool {
			ta, tb := transferTime(comp, candidates[a]), transferTime(comp, candidates[b])
			if ta != tb {
				return ta < tb
			}
			return candidates[a].idle > candidates[b].idle
		})
		best := candidates[0]
		best.idle -= comp.Size
		placements = append(placements, ComponentPlacement{Component: ci, Site: best.site, Size: comp.Size})
	}
	return placements, true
}

// ClusterMinimization packs components into as few clusters as possible to
// reduce inter-cluster messages ([23]). Components are placed largest first;
// each goes to an already-used cluster when it fits (the fullest such
// cluster), otherwise to the cluster whose idle count is smallest but
// sufficient (best fit, to keep the cluster count low for the remainder).
type ClusterMinimization struct{}

// Name implements PlacementPolicy.
func (ClusterMinimization) Name() string { return "CM" }

// Place implements PlacementPolicy.
func (ClusterMinimization) Place(spec *JobSpec, snap Snapshot, sites []*Site) ([]ComponentPlacement, bool) {
	views := newViews(snap, sites)

	order := make([]int, len(spec.Components))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return spec.Components[order[a]].Size > spec.Components[order[b]].Size
	})

	placements := make([]ComponentPlacement, len(spec.Components))
	for _, ci := range order {
		comp := spec.Components[ci]
		var best *siteView
		// Prefer clusters already used by this job.
		for i := range views {
			v := &views[i]
			if v.used && v.idle >= comp.Size && (best == nil || v.idle < best.idle) {
				best = v
			}
		}
		if best == nil {
			for i := range views {
				v := &views[i]
				if v.idle >= comp.Size && (best == nil || v.idle < best.idle) {
					best = v
				}
			}
		}
		if best == nil {
			return nil, false
		}
		best.idle -= comp.Size
		best.used = true
		placements[ci] = ComponentPlacement{Component: ci, Site: best.site, Size: comp.Size}
	}
	return placements, true
}

// FlexibleClusterMinimization is CM's flexible variant ([23]): it ignores
// the submitted component split and re-splits the job's total processor
// request over the clusters with the most idle processors, reducing queue
// time at the price of more components. Only jobs whose profiles tolerate
// arbitrary component sizes (Min 1) may be split; others fall back to CM.
type FlexibleClusterMinimization struct{}

// Name implements PlacementPolicy.
func (FlexibleClusterMinimization) Name() string { return "FCM" }

// Place implements PlacementPolicy.
func (FlexibleClusterMinimization) Place(spec *JobSpec, snap Snapshot, sites []*Site) ([]ComponentPlacement, bool) {
	splittable := len(spec.Components) == 1 && spec.Components[0].Profile.Min <= 1 && !spec.Malleable()
	if !splittable {
		return ClusterMinimization{}.Place(spec, snap, sites)
	}
	total := spec.Components[0].Size
	views := newViews(snap, sites)
	sort.SliceStable(views, func(a, b int) bool { return views[a].idle > views[b].idle })
	var placements []ComponentPlacement
	remaining := total
	for _, v := range views {
		if remaining == 0 {
			break
		}
		if v.idle <= 0 {
			continue
		}
		chunk := v.idle
		if chunk > remaining {
			chunk = remaining
		}
		placements = append(placements, ComponentPlacement{Component: 0, Site: v.site, Size: chunk})
		remaining -= chunk
	}
	if remaining > 0 {
		return nil, false
	}
	return placements, true
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
