// Package cluster models the multicluster hardware substrate of the paper:
// a set of clusters, each with a fixed number of compute nodes allocated in
// space-shared, exclusive fashion at node granularity (the DAS-3 SGE
// configuration of §VI-B). It also models "background load": nodes seized by
// local users who bypass the multicluster scheduler entirely (§V-B), which
// KOALA can discover only by polling its information service.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/slab"
)

// ErrInsufficientNodes is returned when an allocation or grow request asks
// for more nodes than are currently idle.
var ErrInsufficientNodes = errors.New("cluster: insufficient idle nodes")

// Cluster is one site of the multicluster: a named pool of identical nodes.
type Cluster struct {
	name         string
	location     string
	interconnect string
	nodes        int

	used       int // nodes held by Allocations (grid jobs)
	background int // nodes seized directly by local users

	// allocs hands out Allocation handles (the malleable runners churn
	// through one per size-1 GRAM stub); a handle stays valid until the
	// cluster is torn down.
	allocs slab.Slab[Allocation]
}

// allocPool holds the Allocation chunks of torn-down clusters.
var allocPool slab.Pool[Allocation]

// New creates a cluster with the given name and node count.
func New(name string, nodes int) *Cluster {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: %q must have positive node count", name))
	}
	return &Cluster{name: name, nodes: nodes, allocs: slab.New(&allocPool)}
}

// Teardown hands the memory of every Allocation the cluster made to the
// pool for later clusters. Neither the cluster nor any of its
// allocations may be used afterwards.
func (c *Cluster) Teardown() { c.allocs.Release() }

// NewWithInfo creates a cluster carrying the descriptive fields of Table I.
func NewWithInfo(name, location, interconnect string, nodes int) *Cluster {
	c := New(name, nodes)
	c.location = location
	c.interconnect = interconnect
	return c
}

// Name returns the cluster's identifier.
func (c *Cluster) Name() string { return c.name }

// Location returns the descriptive location (Table I), possibly empty.
func (c *Cluster) Location() string { return c.location }

// Interconnect returns the interconnect description (Table I), possibly empty.
func (c *Cluster) Interconnect() string { return c.interconnect }

// Nodes returns the total node count.
func (c *Cluster) Nodes() int { return c.nodes }

// Used returns the number of nodes held by grid allocations.
func (c *Cluster) Used() int { return c.used }

// Background returns the number of nodes seized by bypassing local users.
func (c *Cluster) Background() int { return c.background }

// Idle returns the number of nodes free for new allocations.
func (c *Cluster) Idle() int { return c.nodes - c.used - c.background }

// checkInvariant panics if accounting went negative or over capacity; this
// is the safety net behind every mutation.
func (c *Cluster) checkInvariant() {
	if c.used < 0 || c.background < 0 || c.used+c.background > c.nodes {
		panic(fmt.Sprintf("cluster %s: invariant violated used=%d background=%d nodes=%d",
			c.name, c.used, c.background, c.nodes))
	}
}

// Allocate reserves n idle nodes and returns a handle that can later grow,
// shrink, and release them. n must be positive.
func (c *Cluster) Allocate(n int) (*Allocation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster %s: allocation size %d must be positive", c.name, n)
	}
	if n > c.Idle() {
		return nil, fmt.Errorf("%w: want %d, idle %d on %s", ErrInsufficientNodes, n, c.Idle(), c.name)
	}
	c.used += n
	c.checkInvariant()
	a := c.allocs.Alloc()
	a.cluster = c
	a.nodes = n
	return a, nil
}

// SeizeBackground marks n idle nodes as taken by local users who bypass the
// grid scheduler.
func (c *Cluster) SeizeBackground(n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster %s: background seizure %d must be positive", c.name, n)
	}
	if n > c.Idle() {
		return fmt.Errorf("%w: background wants %d, idle %d on %s", ErrInsufficientNodes, n, c.Idle(), c.name)
	}
	c.background += n
	c.checkInvariant()
	return nil
}

// ReleaseBackground returns n background-held nodes to the idle pool.
func (c *Cluster) ReleaseBackground(n int) error {
	if n <= 0 || n > c.background {
		return fmt.Errorf("cluster %s: cannot release %d background nodes (held %d)", c.name, n, c.background)
	}
	c.background -= n
	c.checkInvariant()
	return nil
}

// Allocation is a space-shared, node-granular reservation on one cluster.
type Allocation struct {
	cluster  *Cluster
	nodes    int
	released bool
}

// Cluster returns the owning cluster.
func (a *Allocation) Cluster() *Cluster { return a.cluster }

// Nodes returns the current size of the allocation (0 after release).
func (a *Allocation) Nodes() int {
	if a.released {
		return 0
	}
	return a.nodes
}

// Released reports whether the allocation has been released.
func (a *Allocation) Released() bool { return a.released }

// Grow adds n nodes to the allocation, taking them from the idle pool.
func (a *Allocation) Grow(n int) error {
	if a.released {
		return fmt.Errorf("cluster %s: grow on released allocation", a.cluster.name)
	}
	if n <= 0 {
		return fmt.Errorf("cluster %s: grow by %d must be positive", a.cluster.name, n)
	}
	if n > a.cluster.Idle() {
		return fmt.Errorf("%w: grow wants %d, idle %d on %s", ErrInsufficientNodes, n, a.cluster.Idle(), a.cluster.name)
	}
	a.cluster.used += n
	a.nodes += n
	a.cluster.checkInvariant()
	return nil
}

// Shrink returns n nodes of the allocation to the idle pool. The allocation
// must keep at least one node; use Release to drop it entirely.
func (a *Allocation) Shrink(n int) error {
	if a.released {
		return fmt.Errorf("cluster %s: shrink on released allocation", a.cluster.name)
	}
	if n <= 0 || n >= a.nodes {
		return fmt.Errorf("cluster %s: shrink by %d invalid for allocation of %d", a.cluster.name, n, a.nodes)
	}
	a.cluster.used -= n
	a.nodes -= n
	a.cluster.checkInvariant()
	return nil
}

// Release returns all nodes to the idle pool. Releasing twice is an error.
func (a *Allocation) Release() error {
	if a.released {
		return fmt.Errorf("cluster %s: double release", a.cluster.name)
	}
	a.cluster.used -= a.nodes
	a.released = true
	a.nodes = 0
	a.cluster.checkInvariant()
	return nil
}
