package app

import (
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Rigid: "rigid", Moldable: "moldable", Malleable: "malleable", Class(9): "class(9)"} {
		if c.String() != want {
			t.Errorf("Class(%d) = %q", int(c), c.String())
		}
	}
}

func TestProfileValidate(t *testing.T) {
	ok := FTProfile()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Profile{
		{Name: "", Model: FTModel(), Min: 1, Max: 2},
		{Name: "x", Model: nil, Min: 1, Max: 2},
		{Name: "x", Model: FTModel(), Min: 0, Max: 2},
		{Name: "x", Model: FTModel(), Min: 4, Max: 2},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestLargestPow2LE(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 31: 16, 32: 32, 100: 64}
	for n, want := range cases {
		if got := largestPow2LE(n); got != want {
			t.Errorf("largestPow2LE(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFTAcceptGrow(t *testing.T) {
	ft := FTProfile()
	cases := []struct{ current, offer, want int }{
		{2, 1, 0},    // 2+1=3 → pow2 is 2 → no growth
		{2, 2, 2},    // 2+2=4 → grow to 4
		{2, 5, 2},    // 2+5=7 → pow2 is 4 → accept 2
		{4, 12, 12},  // 4+12=16 → accept all
		{8, 100, 24}, // capped at max 32
		{32, 4, 0},   // already at max
		{16, 0, 0},   // nothing offered
	}
	for _, c := range cases {
		if got := ft.AcceptGrow(c.current, c.offer); got != c.want {
			t.Errorf("FT AcceptGrow(%d,%d) = %d, want %d", c.current, c.offer, got, c.want)
		}
	}
}

func TestFTAcceptShrink(t *testing.T) {
	ft := FTProfile()
	cases := []struct{ current, request, want int }{
		{16, 1, 8},  // must step to pow2: 16→8 releases 8
		{16, 8, 8},  // exactly one step
		{16, 9, 12}, // 16-9=7 → pow2 4 → release 12
		{4, 1, 2},   // 4→2
		{2, 5, 0},   // at min already
		{8, 0, 0},
		{32, 30, 30}, // 32-30=2 → min, release 30
	}
	for _, c := range cases {
		if got := ft.AcceptShrink(c.current, c.request); got != c.want {
			t.Errorf("FT AcceptShrink(%d,%d) = %d, want %d", c.current, c.request, got, c.want)
		}
	}
}

func TestGadgetAcceptAnything(t *testing.T) {
	g := GadgetProfile()
	if got := g.AcceptGrow(2, 7); got != 7 {
		t.Fatalf("AcceptGrow = %d, want 7", got)
	}
	if got := g.AcceptGrow(40, 100); got != 6 {
		t.Fatalf("AcceptGrow capped = %d, want 6", got)
	}
	if got := g.AcceptShrink(10, 3); got != 3 {
		t.Fatalf("AcceptShrink = %d, want 3", got)
	}
	if got := g.AcceptShrink(4, 100); got != 2 {
		t.Fatalf("AcceptShrink to min = %d, want 2", got)
	}
}

func TestRigidAndMoldableProfiles(t *testing.T) {
	r := RigidProfile("r", FTModel(), 2)
	if r.Class != Rigid || r.Min != 2 || r.Max != 2 {
		t.Fatalf("rigid profile: %+v", r)
	}
	if got := r.AcceptGrow(2, 5); got != 0 {
		t.Fatal("rigid job should never grow")
	}
	if got := r.AcceptShrink(2, 1); got != 0 {
		t.Fatal("rigid job should never shrink")
	}
	m := &Profile{Name: "m", Class: Moldable, Model: GadgetModel(), Min: 2, Max: 16}
	if err := m.Validate(); err != nil {
		t.Fatalf("moldable profile: %v", err)
	}
}

// Property: FT's size after any grow/shrink sequence stays a power of two
// within [2,32].
func TestPropertyFTSizeAlwaysPow2(t *testing.T) {
	ft := FTProfile()
	isPow2 := func(n int) bool { return n >= 1 && n&(n-1) == 0 }
	type op struct {
		Grow bool
		N    uint8
	}
	f := func(ops []op) bool {
		size := 2
		for _, o := range ops {
			amount := int(o.N%40) + 1
			if o.Grow {
				size += ft.AcceptGrow(size, amount)
			} else {
				size -= ft.AcceptShrink(size, amount)
			}
			if !isPow2(size) || size < 2 || size > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AcceptGrow never exceeds the offer and never pushes past Max;
// AcceptShrink never drops below Min.
func TestPropertyAcceptBounds(t *testing.T) {
	profiles := []*Profile{FTProfile(), GadgetProfile()}
	f := func(curRaw, amtRaw uint8, grow bool, which bool) bool {
		p := profiles[0]
		if which {
			p = profiles[1]
		}
		current := p.Min + int(curRaw)%(p.Max-p.Min+1)
		amount := int(amtRaw % 64)
		if grow {
			a := p.AcceptGrow(current, amount)
			return a >= 0 && a <= amount && current+a <= p.Max
		}
		a := p.AcceptShrink(current, amount)
		return a >= 0 && current-a >= p.Min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
