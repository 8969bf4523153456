package app

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableModelInterpolation(t *testing.T) {
	m := NewTableModel("x", []TablePoint{{2, 100}, {4, 60}, {8, 40}})
	cases := []struct {
		p    int
		want float64
	}{
		{1, 100}, // clamp below
		{2, 100},
		{3, 80}, // midpoint
		{4, 60},
		{6, 50},
		{8, 40},
		{16, 40}, // clamp above
	}
	for _, c := range cases {
		if got := m.Time(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Time(%d) = %g, want %g", c.p, got, c.want)
		}
	}
	if m.Name() != "x" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestTableModelValidation(t *testing.T) {
	panics := []func(){
		func() { NewTableModel("e", nil) },
		func() { NewTableModel("d", []TablePoint{{2, 10}, {2, 20}}) },
		func() { NewTableModel("z", []TablePoint{{0, 10}}) },
		func() { NewTableModel("n", []TablePoint{{2, -1}}) },
		func() { NewTableModel("ok", []TablePoint{{2, 10}}).Time(0) },
	}
	for i, fn := range panics {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTableModelUnsortedInput(t *testing.T) {
	m := NewTableModel("u", []TablePoint{{8, 40}, {2, 100}, {4, 60}})
	if got := m.Time(3); math.Abs(got-80) > 1e-9 {
		t.Fatalf("Time(3) = %g, want 80", got)
	}
}

// Fig. 6 anchors: FT ≈ 2 min at 2 procs, best ≈ 1 min; GADGET ≈ 10 min at 2
// procs, best ≈ 4 min.
func TestFig6Anchors(t *testing.T) {
	ft := FTModel()
	if got := ft.Time(2); got != 120 {
		t.Fatalf("FT T(2) = %g, want 120", got)
	}
	if best := bestProcs(ft, 32); ft.Time(best) != 60 {
		t.Fatalf("FT best = %g at %d, want 60", ft.Time(best), best)
	}
	g := GadgetModel()
	if got := g.Time(2); got != 600 {
		t.Fatalf("GADGET T(2) = %g, want 600", got)
	}
	if best := bestProcs(g, 46); g.Time(best) != 240 {
		t.Fatalf("GADGET best = %g at %d, want 240", g.Time(best), best)
	}
}

// §VI-C: the chosen maximum sizes are deliberately greater than the sizes
// with minimum execution time.
func TestMaxSizesExceedBestSizes(t *testing.T) {
	ft := FTProfile()
	if best := bestProcs(ft.Model, ft.Max); best >= ft.Max {
		t.Fatalf("FT best %d not below max %d", best, ft.Max)
	}
	if ft.Model.Time(ft.Max) <= ft.Model.Time(16) {
		t.Fatal("FT should degrade slightly beyond 16")
	}
}

// Property: table interpolation stays within the convex hull of neighbours.
func TestPropertyTableModelBounded(t *testing.T) {
	m := NewTableModel("b", []TablePoint{{1, 200}, {4, 100}, {16, 50}, {64, 80}})
	f := func(pRaw uint8) bool {
		p := int(pRaw)%80 + 1
		v := m.Time(p)
		return v >= 50 && v <= 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bestProcs is the processor count in [1, maxP] minimising m.Time: the
// "size that gives the best execution time" of §VI-C.
func bestProcs(m RuntimeModel, maxP int) int {
	best := 1
	for p := 2; p <= maxP; p++ {
		if m.Time(p) < m.Time(best) {
			best = p
		}
	}
	return best
}
