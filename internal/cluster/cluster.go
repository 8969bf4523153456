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
)

// ErrInsufficientNodes is returned when an allocation or a background
// seizure asks for more nodes than are currently idle.
var ErrInsufficientNodes = errors.New("cluster: insufficient idle nodes")

// Cluster is one site of the multicluster: a named pool of identical nodes.
type Cluster struct {
	name         string
	location     string
	interconnect string
	nodes        int

	used       int // nodes allocated to grid jobs (through the LRM)
	background int // nodes seized directly by local users
}

// New creates a cluster with the given name and node count.
func New(name string, nodes int) *Cluster {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: %q must have positive node count", name))
	}
	return &Cluster{name: name, nodes: nodes}
}

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

// Used returns the number of nodes allocated to grid jobs.
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

// Allocate takes n idle nodes for a grid job. n must be positive. The
// cluster keeps only the count: the LRM job that asked knows its size and
// hands the same n back to Free.
func (c *Cluster) Allocate(n int) error {
	if n <= 0 {
		return fmt.Errorf("cluster %s: allocation size %d must be positive", c.name, n)
	}
	if n > c.Idle() {
		return fmt.Errorf("%w: want %d, idle %d on %s", ErrInsufficientNodes, n, c.Idle(), c.name)
	}
	c.used += n
	c.checkInvariant()
	return nil
}

// Free returns n allocated nodes to the idle pool. n must be positive and
// at most Used.
func (c *Cluster) Free(n int) error {
	if n <= 0 || n > c.used {
		return fmt.Errorf("cluster %s: cannot free %d nodes (used %d)", c.name, n, c.used)
	}
	c.used -= n
	c.checkInvariant()
	return nil
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
