package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/koala"
	"repro/internal/sim"
)

func TestGenerateWm(t *testing.T) {
	w, err := Generate(Wm(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Items) != 300 {
		t.Fatalf("jobs = %d", len(w.Items))
	}
	if w.CountMalleable() != 300 {
		t.Fatalf("malleable = %d, want all", w.CountMalleable())
	}
	for i, it := range w.Items {
		if it.SubmitAt != float64(i)*120 {
			t.Fatalf("item %d at %g, want %g", i, it.SubmitAt, float64(i)*120)
		}
		if it.Size != 2 {
			t.Fatalf("item %d size %d", i, it.Size)
		}
	}
	if w.Duration() != 299*120 {
		t.Fatalf("duration = %g", w.Duration())
	}
}

func TestGenerateWmrMixesClasses(t *testing.T) {
	w, _ := Generate(Wmr(7))
	m := w.CountMalleable()
	if m < 100 || m > 200 {
		t.Fatalf("malleable = %d of 300, want ≈150", m)
	}
}

func TestGenerateMixesApps(t *testing.T) {
	w, _ := Generate(Wm(3))
	ft := 0
	for _, it := range w.Items {
		if it.App == FT {
			ft++
		}
	}
	if ft < 100 || ft > 200 {
		t.Fatalf("FT jobs = %d of 300, want ≈150", ft)
	}
}

func TestPrimeWorkloadsUse30s(t *testing.T) {
	for _, spec := range []Spec{WmPrime(1), WmrPrime(1)} {
		if spec.InterArrival != 30 {
			t.Fatalf("%s inter-arrival = %g", spec.Name, spec.InterArrival)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Wmr(42))
	b, _ := Generate(Wmr(42))
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs across same-seed generations", i)
		}
	}
	c, _ := Generate(Wmr(43))
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestPoissonArrivals(t *testing.T) {
	spec := Wm(5)
	spec.PoissonArrivals = true
	w, _ := Generate(spec)
	// Mean inter-arrival should be ≈120.
	mean := w.Duration() / float64(len(w.Items)-1)
	if math.Abs(mean-120) > 25 {
		t.Fatalf("poisson mean inter-arrival = %g", mean)
	}
	// Spacings must vary.
	d0 := w.Items[1].SubmitAt - w.Items[0].SubmitAt
	d1 := w.Items[2].SubmitAt - w.Items[1].SubmitAt
	if d0 == d1 {
		t.Fatal("poisson spacings identical")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Name: "x", Jobs: 0, InterArrival: 1, MalleableFraction: 1, InitialSize: 2, RigidSize: 2},
		{Name: "x", Jobs: 1, InterArrival: 0, MalleableFraction: 1, InitialSize: 2, RigidSize: 2},
		{Name: "x", Jobs: 1, InterArrival: 1, MalleableFraction: 2, InitialSize: 2, RigidSize: 2},
		{Name: "x", Jobs: 1, InterArrival: 1, MalleableFraction: 1, InitialSize: 0, RigidSize: 2},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSpecByName(t *testing.T) {
	for name, want := range map[string]string{"Wm": "Wm", "Wmr": "Wmr", "W'm": "W'm", "W'mr": "W'mr"} {
		s, err := SpecByName(name, 1)
		if err != nil || s.Name != want {
			t.Errorf("SpecByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := SpecByName("zzz", 1); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestItemJobSpec(t *testing.T) {
	cases := []struct {
		item      Item
		malleable bool
	}{
		{Item{ID: "a", App: FT, Malleable: true, Size: 2}, true},
		{Item{ID: "b", App: Gadget, Malleable: true, Size: 2}, true},
		{Item{ID: "c", App: FT, Malleable: false, Size: 2}, false},
		{Item{ID: "d", App: Gadget, Malleable: false, Size: 2}, false},
	}
	for _, c := range cases {
		spec := c.item.JobSpec()
		if err := spec.Validate(); err != nil {
			t.Errorf("item %s spec invalid: %v", c.item.ID, err)
		}
		if spec.Malleable() != c.malleable {
			t.Errorf("item %s malleable = %v", c.item.ID, spec.Malleable())
		}
	}
}

func TestSubmitReplaysAtRightTimes(t *testing.T) {
	e := sim.New()
	w, _ := Generate(Spec{Name: "t", Jobs: 5, InterArrival: 10, MalleableFraction: 1, InitialSize: 2, RigidSize: 2, Seed: 1})
	var times []float64
	sub := Submit(e, w, func(koala.JobSpec) error {
		times = append(times, e.Now())
		return nil
	})
	e.Run()
	if sub.Submitted() != 5 || len(sub.Errs()) != 0 {
		t.Fatalf("submitted=%d errs=%v", sub.Submitted(), sub.Errs())
	}
	for i, tm := range times {
		if tm != float64(i*10) {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	w, _ := Generate(Wmr(11))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Wmr" || len(got.Items) != len(w.Items) {
		t.Fatalf("round trip: name=%q items=%d", got.Name, len(got.Items))
	}
	for i := range w.Items {
		if got.Items[i] != w.Items[i] {
			t.Fatalf("item %d: %+v != %+v", i, got.Items[i], w.Items[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	bad := []string{
		"a 0 FT malleable",                        // too few fields
		"a x FT malleable 2",                      // bad submit
		"a 0 WAT malleable 2",                     // bad app
		"a 0 FT sideways 2",                       // bad class
		"a 0 FT malleable zero",                   // bad size
		"a 10 FT malleable 2\nb 5 FT malleable 2", // out of order
	}
	for i, s := range bad {
		if _, err := ReadTrace(strings.NewReader(s)); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// Property: generated submissions are sorted and sizes stay positive.
func TestPropertyGenerateWellFormed(t *testing.T) {
	f := func(seed uint64, jobsRaw, fracRaw uint8) bool {
		spec := Spec{
			Name:              "p",
			Jobs:              int(jobsRaw%100) + 1,
			InterArrival:      30,
			MalleableFraction: float64(fracRaw) / 255,
			InitialSize:       2,
			RigidSize:         2,
			Seed:              seed,
		}
		w, err := Generate(spec)
		if err != nil {
			return false
		}
		for i, it := range w.Items {
			if it.Size <= 0 {
				return false
			}
			if i > 0 && it.SubmitAt < w.Items[i-1].SubmitAt {
				return false
			}
		}
		return len(w.Items) == spec.Jobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundLoadSeizesAndReleases(t *testing.T) {
	e := sim.New()
	grid := cluster.NewMulticluster(cluster.New("A", 32), cluster.New("B", 32))
	bg, err := StartBackground(e, grid, BackgroundSpec{MeanInterArrival: 50, MeanDuration: 100, MaxNodes: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, c := range grid.Clusters() {
			n += c.Background()
		}
		return n
	}
	started := false
	for at := 50.0; at <= 2000; at += 50 {
		e.RunUntil(at)
		started = started || held() > 0
	}
	if !started {
		t.Fatal("no background sessions started")
	}
	bg.Stop()
	e.RunUntil(1e6) // all sessions end
	if n := held(); n != 0 {
		t.Fatalf("background nodes leaked: %d", n)
	}
}

func TestBackgroundSpecValidation(t *testing.T) {
	e := sim.New()
	grid := cluster.NewMulticluster(cluster.New("A", 4))
	if _, err := StartBackground(e, grid, BackgroundSpec{}); err == nil {
		t.Fatal("zero spec should fail")
	}
}

func TestAppKindString(t *testing.T) {
	if FT.String() != "FT" || Gadget.String() != "GADGET2" || AppKind(9).String() == "" {
		t.Fatal("AppKind strings")
	}
}
