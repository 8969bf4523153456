package koala

import "repro/internal/sim"

// ProcessorInfo is what the processor information provider (PIP) reports for
// one cluster: totals and idle counts as observed at the monitoring
// infrastructure. Background load from users who bypass KOALA is visible
// only through the Idle figure (§V-B).
type ProcessorInfo struct {
	Total int
	Idle  int
}

// Snapshot is one consistent view of the grid as assembled by the KOALA
// information service. Scheduling and malleability decisions are made
// against snapshots, never against live cluster state — this is what makes
// the scheduler resilient to (and aware of) background load only at polling
// granularity.
//
// A snapshot is a time plus a slice indexed by Site.Index. Snapshots
// returned by KIS.Refresh reuse buffers: a snapshot stays valid until the
// next-but-one Refresh, which covers every consumer in the polling loop
// (all consume the snapshot within the event that obtained it).
type Snapshot struct {
	Time float64

	procs []ProcessorInfo
}

// Len returns the number of sites in the snapshot.
func (s Snapshot) Len() int { return len(s.procs) }

// At returns the processor info of the site with index i.
func (s Snapshot) At(i int) ProcessorInfo { return s.procs[i] }

// IdleAt returns the idle processor count of the site with index i.
func (s Snapshot) IdleAt(i int) int { return s.procs[i].Idle }

// KIS is the KOALA information service (§IV-A), which serves snapshots to
// the scheduler. KOALA's KIS also aggregates a network information provider
// and a replica location service; this model keeps only the processor
// information provider, because it is the only one the paper's placement
// and malleability decisions read.
type KIS struct {
	engine *sim.Engine
	sites  []*Site

	// bufs double-buffer the snapshot storage: Refresh writes into the
	// buffer the *previous* snapshot does not use, so the hot path never
	// allocates and the most recent Last() snapshot is never overwritten
	// by the next Refresh (only by the one after it).
	bufs [2][]ProcessorInfo
	cur  int
	last Snapshot
}

// NewKIS builds the information service over the sites BuildSites made,
// in site-index order.
func NewKIS(engine *sim.Engine, sites []*Site) *KIS {
	k := &KIS{engine: engine, sites: sites}
	k.bufs[0] = make([]ProcessorInfo, len(sites))
	k.bufs[1] = make([]ProcessorInfo, len(sites))
	k.Refresh()
	return k
}

// Refresh polls the processor provider and captures a new snapshot,
// returning it. The scheduler calls this on its polling tick (§V-B), which
// is how changes in background load become visible. The returned snapshot
// reuses pooled storage and stays valid until the next-but-one Refresh.
func (k *KIS) Refresh() Snapshot {
	k.cur ^= 1
	buf := k.bufs[k.cur]
	for i, s := range k.sites {
		buf[i] = ProcessorInfo{Total: s.Cluster().Nodes(), Idle: s.Cluster().Idle()}
	}
	k.last = Snapshot{Time: k.engine.Now(), procs: buf}
	return k.last
}

// Last returns the most recent snapshot without refreshing.
func (k *KIS) Last() Snapshot { return k.last }
