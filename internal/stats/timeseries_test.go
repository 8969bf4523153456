package stats

import (
	"testing"
	"testing/quick"
)

func TestTimeSeriesAtStepSemantics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(0, 1)
	ts.Add(10, 5)
	ts.Add(20, 2)
	cases := []struct{ tm, want float64 }{
		{-1, 0}, {0, 1}, {5, 1}, {10, 5}, {15, 5}, {20, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := ts.At(c.tm); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.tm, got, c.want)
		}
	}
}

func TestTimeSeriesSameInstantOverwrites(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(5, 1)
	ts.Add(5, 9)
	if ts.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ts.Len())
	}
	if ts.At(5) != 9 {
		t.Fatalf("At(5) = %g, want 9", ts.At(5))
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add did not panic")
		}
	}()
	ts.Add(5, 2)
}

func TestTimeSeriesIntegral(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(0, 2)
	ts.Add(10, 4)
	// [0,10): 2*10 = 20 ; [10,20]: 4*10 = 40.
	if got := ts.Integral(0, 20); got != 60 {
		t.Fatalf("Integral = %g, want 60", got)
	}
	if got := ts.Integral(5, 15); got != 2*5+4*5 {
		t.Fatalf("clipped Integral = %g, want 30", got)
	}
	if got := ts.MeanOver(0, 20); got != 3 {
		t.Fatalf("MeanOver = %g, want 3", got)
	}
	if ts.Integral(5, 5) != 0 || ts.Integral(10, 5) != 0 {
		t.Fatal("degenerate intervals should integrate to 0")
	}
}

func TestTimeSeriesSample(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(0, 1)
	ts.Add(10, 2)
	pts := ts.Sample(0, 20, 10)
	if len(pts) != 3 {
		t.Fatalf("Sample points = %d, want 3", len(pts))
	}
	want := []float64{1, 2, 2}
	for i, p := range pts {
		if p.Percent != want[i] {
			t.Fatalf("sample[%d] = %g, want %g", i, p.Percent, want[i])
		}
	}
}

func TestTimeSeriesSampleBadStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive step did not panic")
		}
	}()
	NewTimeSeries().Sample(0, 10, 0)
}

func TestTimeSeriesMaxAndLast(t *testing.T) {
	ts := NewTimeSeries()
	if ts.MaxValue() != 0 {
		t.Fatalf("empty MaxValue = %g, want 0", ts.MaxValue())
	}
	ts.Add(1, 3)
	ts.Add(2, 8)
	ts.Add(3, 5)
	if ts.MaxValue() != 8 {
		t.Fatalf("MaxValue = %g", ts.MaxValue())
	}
	if n := ts.Len(); n != 3 || ts.times[n-1] != 3 || ts.values[n-1] != 5 {
		t.Fatalf("last sample = (%g,%g) of %d", ts.times[n-1], ts.values[n-1], n)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc(1, 2)
	c.Inc(5, 3)
	if c.Total() != 5 {
		t.Fatalf("Total = %g", c.Total())
	}
	if got := c.Series().At(3); got != 2 {
		t.Fatalf("Series().At(3) = %g, want 2", got)
	}
	if got := c.Series().At(5); got != 5 {
		t.Fatalf("Series().At(5) = %g, want 5", got)
	}
}

// Property: Integral over adjacent intervals adds up.
func TestPropertyIntegralAdditive(t *testing.T) {
	f := func(vals []uint8) bool {
		ts := NewTimeSeries()
		for i, v := range vals {
			ts.Add(float64(i), float64(v))
		}
		end := float64(len(vals)) + 5
		whole := ts.Integral(0, end)
		mid := end / 2
		split := ts.Integral(0, mid) + ts.Integral(mid, end)
		return almostEqual(whole, split, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
