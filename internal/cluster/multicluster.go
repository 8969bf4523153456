package cluster

import (
	"fmt"
	"slices"
	"strings"
)

// Multicluster is an ordered collection of clusters — the grid on which
// KOALA schedules. Order matters for deterministic tie-breaking in
// placement policies.
type Multicluster struct {
	clusters []*Cluster
}

// NewMulticluster assembles a grid from the given clusters. Duplicate names
// panic: a cluster's name identifies it in every job record, trace and
// error.
func NewMulticluster(clusters ...*Cluster) *Multicluster {
	for i, c := range clusters {
		for _, prev := range clusters[:i] {
			if prev.Name() == c.Name() {
				panic(fmt.Sprintf("cluster: duplicate cluster name %q", c.Name()))
			}
		}
	}
	return &Multicluster{clusters: slices.Clone(clusters)}
}

// Clusters returns the clusters in declaration order. The returned slice
// must not be modified.
func (m *Multicluster) Clusters() []*Cluster { return m.clusters }

// TotalNodes returns the node count across all clusters.
func (m *Multicluster) TotalNodes() int {
	total := 0
	for _, c := range m.clusters {
		total += c.Nodes()
	}
	return total
}

// TotalUsed returns the grid-allocated node count across all clusters.
func (m *Multicluster) TotalUsed() int {
	total := 0
	for _, c := range m.clusters {
		total += c.Used()
	}
	return total
}

// String renders a one-line status, cluster by cluster.
func (m *Multicluster) String() string {
	var b strings.Builder
	for i, c := range m.clusters {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s %d/%d", c.Name(), c.Used()+c.Background(), c.Nodes())
	}
	return b.String()
}

// DAS3 returns the five-cluster Distributed ASCI Supercomputer 3 testbed of
// Table I (272 nodes total).
func DAS3() *Multicluster {
	return NewMulticluster(
		NewWithInfo("VU", "Vrije University", "Myri-10G & 1/10 GbE", 85),
		NewWithInfo("UvA", "U. of Amsterdam", "Myri-10G & 1/10 GbE", 41),
		NewWithInfo("Delft", "Delft University", "1/10 GbE", 68),
		NewWithInfo("MMN", "MultimediaN", "Myri-10G & 1/10 GbE", 46),
		NewWithInfo("Leiden", "Leiden University", "Myri-10G & 1/10 GbE", 32),
	)
}

// TableI renders Table I of the paper from the multicluster description.
func (m *Multicluster) TableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s   %s\n", "Cluster Location", "Nodes", "Interconnect")
	for _, c := range m.clusters {
		loc := c.Location()
		if loc == "" {
			loc = c.Name()
		}
		fmt.Fprintf(&b, "%-22s %6d   %s\n", loc, c.Nodes(), c.Interconnect())
	}
	fmt.Fprintf(&b, "%-22s %6d\n", "Total", m.TotalNodes())
	return b.String()
}
