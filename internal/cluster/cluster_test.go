package cluster

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestNewClusterBasics(t *testing.T) {
	c := New("delft", 68)
	if c.Name() != "delft" || c.Nodes() != 68 || c.Idle() != 68 || c.Used() != 0 {
		t.Fatalf("bad fresh cluster: %+v", c)
	}
}

func TestNewClusterPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-node cluster did not panic")
		}
	}()
	New("x", 0)
}

func TestAllocateAndRelease(t *testing.T) {
	c := New("c", 10)
	if err := c.Allocate(4); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(3); err != nil {
		t.Fatal(err)
	}
	if c.Idle() != 3 || c.Used() != 7 {
		t.Fatalf("after alloc: idle=%d used=%d", c.Idle(), c.Used())
	}
	if err := c.Free(4); err != nil {
		t.Fatal(err)
	}
	if c.Idle() != 7 || c.Used() != 3 {
		t.Fatalf("after free: idle=%d used=%d", c.Idle(), c.Used())
	}
	for _, n := range []int{0, -1, 4} {
		if err := c.Free(n); err == nil {
			t.Fatalf("Free(%d) with 3 used should fail", n)
		}
	}
	if err := c.Free(3); err != nil || c.Idle() != 10 {
		t.Fatalf("freeing the rest: err=%v idle=%d", err, c.Idle())
	}
}

func TestAllocateErrors(t *testing.T) {
	c := New("c", 4)
	if err := c.Allocate(0); err == nil {
		t.Fatal("zero allocation should fail")
	}
	if err := c.Allocate(-1); err == nil {
		t.Fatal("negative allocation should fail")
	}
	if err := c.Allocate(5); !errors.Is(err, ErrInsufficientNodes) {
		t.Fatalf("oversized allocation: err = %v", err)
	}
}

func TestBackgroundLoad(t *testing.T) {
	c := New("c", 10)
	if err := c.SeizeBackground(6); err != nil {
		t.Fatal(err)
	}
	if c.Idle() != 4 || c.Background() != 6 {
		t.Fatalf("after seize: idle=%d bg=%d", c.Idle(), c.Background())
	}
	if err := c.Allocate(5); !errors.Is(err, ErrInsufficientNodes) {
		t.Fatal("allocation should see background-held nodes as busy")
	}
	if err := c.SeizeBackground(5); !errors.Is(err, ErrInsufficientNodes) {
		t.Fatal("over-seize should fail")
	}
	if err := c.ReleaseBackground(2); err != nil {
		t.Fatal(err)
	}
	if c.Idle() != 6 {
		t.Fatalf("idle = %d after background release", c.Idle())
	}
	if err := c.ReleaseBackground(10); err == nil {
		t.Fatal("over-release should fail")
	}
	if err := c.SeizeBackground(0); err == nil {
		t.Fatal("zero seize should fail")
	}
}

// Property: any sequence of allocate/free/background ops keeps
// used+background+idle == nodes, all terms non-negative, and Used equal to
// the nodes allocated and not yet freed.
func TestPropertyAccountingInvariant(t *testing.T) {
	type op struct {
		Kind byte
		N    uint8
	}
	f := func(ops []op) bool {
		c := New("p", 64)
		var held []int // sizes of the allocations not yet freed
		for _, o := range ops {
			n := int(o.N%16) + 1
			switch o.Kind % 3 {
			case 0:
				if err := c.Allocate(n); err == nil {
					held = append(held, n)
				}
			case 1:
				if len(held) > 0 {
					if c.Free(held[len(held)-1]) != nil {
						return false
					}
					held = held[:len(held)-1]
				} else if c.Free(n) == nil {
					return false
				}
			case 2:
				if o.N%2 == 0 {
					c.SeizeBackground(n)
				} else {
					c.ReleaseBackground(n)
				}
			}
			sum := 0
			for _, h := range held {
				sum += h
			}
			if sum != c.Used() {
				return false
			}
			if c.Used()+c.Background()+c.Idle() != c.Nodes() {
				return false
			}
			if c.Used() < 0 || c.Background() < 0 || c.Idle() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMulticlusterTotals(t *testing.T) {
	a, b := New("a", 10), New("b", 20)
	m := NewMulticluster(a, b)
	if m.TotalNodes() != 30 || m.TotalUsed() != 0 {
		t.Fatalf("totals wrong: %d/%d", m.TotalNodes(), m.TotalUsed())
	}
	a.Allocate(4)
	b.SeizeBackground(5)
	if m.TotalUsed() != 4 || b.Background() != 5 || a.Idle()+b.Idle() != 21 {
		t.Fatalf("totals: used=%d bg=%d idle=%d", m.TotalUsed(), b.Background(), a.Idle()+b.Idle())
	}
	a.Free(4)
	if m.String() == "" {
		t.Fatal("String should render")
	}
}

func TestMulticlusterDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	NewMulticluster(New("x", 1), New("x", 2))
}

func TestDAS3MatchesTableI(t *testing.T) {
	m := DAS3()
	want := map[string]int{"VU": 85, "UvA": 41, "Delft": 68, "MMN": 46, "Leiden": 32}
	if len(m.Clusters()) != 5 {
		t.Fatalf("DAS3 has %d clusters, want 5", len(m.Clusters()))
	}
	for _, c := range m.Clusters() {
		if nodes, ok := want[c.Name()]; !ok || c.Nodes() != nodes {
			t.Errorf("%s has %d nodes, want %d", c.Name(), c.Nodes(), nodes)
		}
	}
	if m.TotalNodes() != 272 {
		t.Fatalf("DAS3 total = %d, want 272", m.TotalNodes())
	}
	tbl := m.TableI()
	if tbl == "" {
		t.Fatal("TableI should render")
	}
}

func TestClusterInfoFields(t *testing.T) {
	c := NewWithInfo("Delft", "Delft University", "1/10 GbE", 68)
	if c.Location() != "Delft University" || c.Interconnect() != "1/10 GbE" {
		t.Fatalf("info fields lost: %q %q", c.Location(), c.Interconnect())
	}
}
