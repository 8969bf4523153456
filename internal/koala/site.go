// Package koala reproduces the KOALA co-allocating multicluster scheduler of
// §IV-A: execution sites backed by local resource managers and GRAM, the
// KOALA information service (KIS) with its processor information provider,
// the placement queue with its retry threshold, and the four placement
// policies (Worst-Fit, Close-to-Files, Cluster Minimization and Flexible
// Cluster Minimization).
//
// Malleability support (§V) lives in package core, which plugs into the
// scheduler through the Hooks interface.
package koala

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/lrm"
	"repro/internal/sim"
)

// Site is one execution site of the grid: a cluster together with its local
// resource manager and GRAM endpoint, plus the data that the Close-to-Files
// policy consults (which input files are replicated here and how fast
// transfers to this site are).
type Site struct {
	clus  *cluster.Cluster
	mgr   *lrm.Manager
	svc   *gram.Service
	index int

	files        map[string]bool // made by the first AddFile
	transferRate float64         // bytes/second towards this site, for CF estimates
}

// BuildSites creates one site per cluster of the multicluster, each with its
// own LRM and GRAM service. Cluster i becomes the site with index i: the
// returned slice is the grid in site-index order, which is the order the
// KIS, the scheduler and the placement policies require.
func BuildSites(engine *sim.Engine, mc *cluster.Multicluster, gramCfg gram.Config) []*Site {
	sites := make([]*Site, len(mc.Clusters()))
	for i, c := range mc.Clusters() {
		mgr := lrm.New(engine, c)
		sites[i] = &Site{clus: c, mgr: mgr, svc: gram.New(engine, mgr, gramCfg), index: i, transferRate: 100e6}
	}
	return sites
}

// Index returns the site's position in the grid. It is the only key for a
// site inside the simulated world: snapshots and every per-site slice of
// the scheduler and the malleability manager are indexed by it.
func (s *Site) Index() int { return s.index }

// Name returns the site (cluster) name.
func (s *Site) Name() string { return s.clus.Name() }

// Cluster returns the underlying cluster.
func (s *Site) Cluster() *cluster.Cluster { return s.clus }

// LRM returns the site's local resource manager.
func (s *Site) LRM() *lrm.Manager { return s.mgr }

// Gram returns the site's GRAM service.
func (s *Site) Gram() *gram.Service { return s.svc }

// AddFile registers an input-file replica at this site.
func (s *Site) AddFile(name string) {
	if s.files == nil {
		s.files = make(map[string]bool)
	}
	s.files[name] = true
}

// HasFile reports whether the named file is replicated at this site.
func (s *Site) HasFile(name string) bool { return s.files[name] }

// SetTransferRate sets the estimated inbound transfer rate (bytes/second).
func (s *Site) SetTransferRate(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("koala: non-positive transfer rate for %s", s.Name()))
	}
	s.transferRate = rate
}

// TransferRate returns the estimated inbound transfer rate.
func (s *Site) TransferRate() float64 { return s.transferRate }
