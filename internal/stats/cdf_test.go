package stats

import (
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDFInPlace([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); got != cse.want {
			t.Errorf("At(%g) = %g, want %g", cse.x, got, cse.want)
		}
	}
	if len(c.sorted) != 4 {
		t.Fatalf("N = %d", len(c.sorted))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDFInPlace(nil)
	if c.At(5) != 0 || c.Percent(5) != 0 {
		t.Fatal("empty CDF should be all-zero")
	}
}

func TestCDFPercent(t *testing.T) {
	c := NewCDFInPlace([]float64{10, 20})
	if got := c.Percent(10); got != 50 {
		t.Fatalf("Percent(10) = %g, want 50", got)
	}
}

func TestCDFSampleAtAndRender(t *testing.T) {
	c := NewCDFInPlace([]float64{1, 2, 3})
	pts := c.SampleAt([]float64{0, 2, 4})
	want := []float64{0, 200.0 / 3, 100}
	for i, p := range pts {
		if !almostEqual(p.Percent, want[i], 1e-9) {
			t.Fatalf("SampleAt[%d] = %g, want %g", i, p.Percent, want[i])
		}
	}
}

// Property: CDF is monotone non-decreasing and bounded in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []int16, probes []int16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDFInPlace(xs)
		prevX, prevV := -1e18, -1.0
		for _, p := range probes {
			x := float64(p)
			if x < prevX {
				continue
			}
			v := c.At(x)
			if v < 0 || v > 1 {
				return false
			}
			if x >= prevX && v < prevV {
				return false
			}
			prevX, prevV = x, v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(max) == 1 for non-empty samples.
func TestPropertyCDFReachesOne(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDFInPlace(xs)
		return c.At(Max(xs)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
