// Package koala reproduces the KOALA multicluster scheduler of §IV-A:
// execution sites backed by local resource managers and GRAM, the KOALA
// information service (KIS) with its processor information provider, the
// placement queue with its retry threshold, and the four placement policies
// (Worst-Fit, Close-to-Files, Cluster Minimization and Flexible Cluster
// Minimization).
//
// KOALA co-allocates jobs across clusters, but this model places every job
// in one cluster. The paper's malleability experiments submit only
// single-component jobs (§VI-C), malleable jobs are single-component by
// design (§V-C), and no input of this repository (workload preset, wire
// config, command-line flag or trace) can express a second component or an
// input file. So a JobSpec is one (profile, size), a placement is one site
// index, and the four policies keep only the rules that single-component,
// file-less jobs can reach.
//
// Malleability support (§V) lives in package core, which plugs into the
// scheduler through the Hooks interface.
package koala

import (
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/lrm"
	"repro/internal/sim"
)

// Site is one execution site of the grid: a cluster together with its local
// resource manager and GRAM endpoint.
type Site struct {
	clus  *cluster.Cluster
	mgr   *lrm.Manager
	svc   *gram.Service
	index int
}

// BuildSites creates one site per cluster of the multicluster, each with its
// own LRM and GRAM service. Cluster i becomes the site with index i: the
// returned slice is the grid in site-index order, which is the order the
// KIS, the scheduler and the placement policies require.
func BuildSites(engine *sim.Engine, mc *cluster.Multicluster, gramCfg gram.Config) []*Site {
	sites := make([]*Site, len(mc.Clusters()))
	for i, c := range mc.Clusters() {
		mgr := lrm.New(engine, c)
		sites[i] = &Site{clus: c, mgr: mgr, svc: gram.New(engine, mgr, gramCfg), index: i}
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
