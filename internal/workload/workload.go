// Package workload generates the workloads of the paper's evaluation
// (§VI-C): 300 jobs drawn uniformly from the two applications (FT and
// GADGET-2), submitted from a single client site with fixed inter-arrival
// times — 120 s for the PRA experiments (Wm, Wmr) and 30 s for the PWA
// experiments (W'm, W'mr). Wm/W'm are all-malleable; Wmr/W'mr mix 50%
// malleable and 50% rigid jobs of size 2.
//
// It also provides a background-load generator modelling local users who
// bypass KOALA (§V-B), and an SWF-like trace format so workloads can be
// saved, inspected and replayed.
package workload

import (
	"fmt"
	"sync"

	"repro/internal/app"
	"repro/internal/koala"
	"repro/internal/sim"
)

// AppKind selects one of the two applications of §VI-A.
type AppKind int

const (
	// FT is the NAS Parallel Benchmark FT kernel.
	FT AppKind = iota
	// Gadget is the GADGET-2 n-body simulator.
	Gadget
)

// String implements fmt.Stringer.
func (k AppKind) String() string {
	switch k {
	case FT:
		return "FT"
	case Gadget:
		return "GADGET2"
	default:
		return fmt.Sprintf("app(%d)", int(k))
	}
}

// Item is one job of a workload: what to submit and when.
type Item struct {
	ID        string
	SubmitAt  float64
	App       AppKind
	Malleable bool
	Size      int // initial size (malleable) or fixed size (rigid)

	// prof, when non-nil, is the profile of the item's class, shared
	// read-only by every item of that class (set by PreparedSpec.Generate);
	// JobSpec then looks up no profile. Profiles are canonical shared
	// instances, so a prepared item's JobSpec is identical to an
	// unprepared one's.
	prof *app.Profile
}

// Profiles are immutable after construction, so every item of every run can
// share one instance per (application, class, size) instead of building a
// fresh profile — and its runtime model tables — per submission. The rigid
// cache is keyed by size and mutex-guarded because parallel sweep workers
// submit concurrently.
var (
	ftMalleable     = app.FTProfile()
	gadgetMalleable = app.GadgetProfile()

	rigidMu    sync.Mutex
	rigidCache = map[rigidKey]*app.Profile{}
)

type rigidKey struct {
	app  AppKind
	size int
}

func rigidProfile(kind AppKind, size int) *app.Profile {
	rigidMu.Lock()
	defer rigidMu.Unlock()
	key := rigidKey{kind, size}
	if p, ok := rigidCache[key]; ok {
		return p
	}
	var p *app.Profile
	if kind == FT {
		p = app.RigidProfile("FT-rigid", app.FTModel(), size)
	} else {
		p = app.RigidProfile("GADGET2-rigid", app.GadgetModel(), size)
	}
	rigidCache[key] = p
	return p
}

// profile is the item's application profile: the prepared one when set,
// else the canonical instance of its class.
func (it Item) profile() *app.Profile {
	if it.prof != nil {
		return it.prof
	}
	return classProfile(it.App, it.Malleable, it.Size)
}

// classProfile returns the canonical profile of an item class.
func classProfile(kind AppKind, malleable bool, size int) *app.Profile {
	switch {
	case malleable && kind == FT:
		return ftMalleable
	case malleable && kind == Gadget:
		return gadgetMalleable
	default:
		return rigidProfile(kind, size)
	}
}

// JobSpec builds the item's job description for submission to KOALA.
func (it Item) JobSpec() koala.JobSpec {
	return koala.JobSpec{ID: it.ID, Profile: it.profile(), Size: it.Size}
}

// Workload is an ordered list of submissions.
type Workload struct {
	Name  string
	Items []Item
}

// Duration returns the submission span (time of the last submission).
func (w *Workload) Duration() float64 {
	if len(w.Items) == 0 {
		return 0
	}
	return w.Items[len(w.Items)-1].SubmitAt
}

// CountMalleable returns how many items are malleable.
func (w *Workload) CountMalleable() int {
	n := 0
	for _, it := range w.Items {
		if it.Malleable {
			n++
		}
	}
	return n
}

// Spec parameterises workload generation.
type Spec struct {
	Name string
	// Jobs is the number of submissions (the paper uses 300).
	Jobs int
	// InterArrival is the fixed time between submissions in seconds
	// (120 for Wm/Wmr, 30 for W'm/W'mr).
	InterArrival float64
	// PoissonArrivals replaces the fixed spacing with exponential
	// inter-arrival times of the same mean (an extension for sensitivity
	// studies; the paper uses fixed spacing).
	PoissonArrivals bool
	// MalleableFraction is the probability that a job is malleable
	// (1.0 for Wm/W'm, 0.5 for Wmr/W'mr).
	MalleableFraction float64
	// InitialSize is the malleable jobs' initial size (2 in the paper).
	InitialSize int
	// RigidSize is the rigid jobs' fixed size (2 in the paper).
	RigidSize int
	// Seed drives all random choices.
	Seed uint64
}

// Validate checks the generation parameters.
func (s *Spec) Validate() error {
	if s.Jobs <= 0 {
		return fmt.Errorf("workload: %q needs a positive job count", s.Name)
	}
	if s.InterArrival <= 0 {
		return fmt.Errorf("workload: %q needs a positive inter-arrival time", s.Name)
	}
	if s.MalleableFraction < 0 || s.MalleableFraction > 1 {
		return fmt.Errorf("workload: %q malleable fraction %g outside [0,1]", s.Name, s.MalleableFraction)
	}
	if s.InitialSize <= 0 || s.RigidSize <= 0 {
		return fmt.Errorf("workload: %q sizes must be positive", s.Name)
	}
	return nil
}

// Generate produces the workload for the spec, deterministically for a given
// seed.
func Generate(spec Spec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return generate(spec, nil), nil
}

// generate is the seeded generator core shared by Generate and
// PreparedSpec.Generate. When prep is non-nil, the rendered ID strings
// and the items' shared profiles are taken from it instead of being
// rebuilt or looked up; the random draws are identical either way, so
// both paths produce the same workload for the same spec and seed.
func generate(spec Spec, prep *PreparedSpec) *Workload {
	rng := sim.NewRNG(spec.Seed)
	w := &Workload{Name: spec.Name, Items: make([]Item, 0, spec.Jobs)}
	t := 0.0
	for i := 0; i < spec.Jobs; i++ {
		kind := FT
		if rng.Bool(0.5) {
			kind = Gadget
		}
		malleable := rng.Bool(spec.MalleableFraction)
		size := spec.InitialSize
		if !malleable {
			size = spec.RigidSize
		}
		it := Item{
			SubmitAt:  t,
			App:       kind,
			Malleable: malleable,
			Size:      size,
		}
		if prep != nil {
			it.ID = prep.ids[i]
			it.prof = prep.rigid[kind]
			if malleable {
				it.prof = prep.malleable[kind]
			}
		} else {
			it.ID = fmt.Sprintf("%s-%03d", spec.Name, i)
		}
		w.Items = append(w.Items, it)
		if spec.PoissonArrivals {
			t += rng.ExpFloat64() * spec.InterArrival
		} else {
			t += spec.InterArrival
		}
	}
	return w
}

// Wm returns the all-malleable PRA workload of §VI-C (300 jobs, 120 s
// inter-arrival, initial size 2).
func Wm(seed uint64) Spec {
	return Spec{Name: "Wm", Jobs: 300, InterArrival: 120, MalleableFraction: 1, InitialSize: 2, RigidSize: 2, Seed: seed}
}

// Wmr returns the 50% malleable / 50% rigid PRA workload of §VI-C.
func Wmr(seed uint64) Spec {
	s := Wm(seed)
	s.Name = "Wmr"
	s.MalleableFraction = 0.5
	return s
}

// WmPrime returns W'm: Wm with the inter-arrival time reduced to 30 s to
// increase system load for the PWA experiments.
func WmPrime(seed uint64) Spec {
	s := Wm(seed)
	s.Name = "W'm"
	s.InterArrival = 30
	return s
}

// WmrPrime returns W'mr: Wmr with 30 s inter-arrival.
func WmrPrime(seed uint64) Spec {
	s := Wmr(seed)
	s.Name = "W'mr"
	s.InterArrival = 30
	return s
}

// SpecByName resolves the four paper workload names.
func SpecByName(name string, seed uint64) (Spec, error) {
	switch name {
	case "Wm", "wm":
		return Wm(seed), nil
	case "Wmr", "wmr":
		return Wmr(seed), nil
	case "W'm", "wm'", "wmprime", "Wm'":
		return WmPrime(seed), nil
	case "W'mr", "wmr'", "wmrprime", "Wmr'":
		return WmrPrime(seed), nil
	default:
		return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// Submitter replays a workload into a scheduler at the items' submit
// times. It is a sim.Handler: one Submitter serves every submission
// event with the item index as the op code, so replaying a 300-job
// workload schedules zero per-item closures.
type Submitter struct {
	w         *Workload
	submit    func(koala.JobSpec) error
	arrivals  *sim.Reservation
	submitted int
	errs      []error
}

// Submit schedules every item of w for submission through submit. It
// reserves one seq per item, so the items fire in the order and with the
// seqs they would have if all were queued now, but only the next item
// waits in the queue: each submission queues the one after it. The items'
// submit times must not decrease (Generate and ReadTrace guarantee it).
// The returned Submitter reports progress and collected errors.
func Submit(engine *sim.Engine, w *Workload, submit func(koala.JobSpec) error) *Submitter {
	s := &Submitter{w: w, submit: submit, arrivals: engine.Reserve(len(w.Items))}
	if len(w.Items) > 0 {
		s.arrivals.AtOp(w.Items[0].SubmitAt, s, 0)
	}
	return s
}

// OnEvent implements sim.Handler: queue item op+1, then submit item op.
func (s *Submitter) OnEvent(op int) {
	if next := op + 1; next < len(s.w.Items) {
		s.arrivals.AtOp(s.w.Items[next].SubmitAt, s, next)
	}
	it := s.w.Items[op]
	if err := s.submit(it.JobSpec()); err != nil {
		s.errs = append(s.errs, fmt.Errorf("submit %s: %w", it.ID, err))
		return
	}
	s.submitted++
}

// Submitted returns how many items were accepted so far.
func (s *Submitter) Submitted() int { return s.submitted }

// Errs returns submission errors collected so far.
func (s *Submitter) Errs() []error { return s.errs }
