package app

import "fmt"

// Class is the Feitelson–Rudolph parallel-job class of §II-A.
type Class int

const (
	// Rigid jobs require a fixed processor count for their whole life.
	Rigid Class = iota
	// Moldable jobs pick their processor count at start time only.
	Moldable
	// Malleable jobs can grow and shrink while running.
	Malleable
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Rigid:
		return "rigid"
	case Moldable:
		return "moldable"
	case Malleable:
		return "malleable"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Profile describes an application type: its scaling behaviour, its size
// envelope, and — crucially for the scheduler protocol of §V-C — how it
// responds to grow and shrink offers. The scheduler deliberately knows
// nothing about per-application constraints (such as FT's power-of-two
// rule); it offers an amount and the application answers with what it
// accepts, voluntarily releasing the rest.
type Profile struct {
	Name  string
	Class Class
	Model RuntimeModel
	// Min is the smallest processor count the application can run on; it
	// can never shrink below Min.
	Min int
	// Max is the largest useful processor count; allocating more would
	// waste processors.
	Max int
	// acceptGrow and acceptShrink hold the application-side constraint
	// logic; nil means "accept anything within [Min,Max]".
	acceptGrow   func(current, offer int) int
	acceptShrink func(current, request int) int
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("app: profile without name")
	}
	if p.Model == nil {
		return fmt.Errorf("app: profile %s without runtime model", p.Name)
	}
	if p.Min < 1 || p.Max < p.Min {
		return fmt.Errorf("app: profile %s has bad size range [%d,%d]", p.Name, p.Min, p.Max)
	}
	return nil
}

// AcceptGrow answers a grow offer: given the current size and an offer of
// additional processors, it returns how many of them the application
// accepts (0 ≤ accepted ≤ offer). Per §V-C the job itself enforces its
// maximum and any structural constraint.
func (p *Profile) AcceptGrow(current, offer int) int {
	if offer <= 0 || current >= p.Max {
		return 0
	}
	if current+offer > p.Max {
		offer = p.Max - current
	}
	if p.acceptGrow != nil {
		a := p.acceptGrow(current, offer)
		if a < 0 {
			return 0
		}
		if a > offer {
			return offer
		}
		return a
	}
	return offer
}

// AcceptShrink answers a mandatory shrink request: given the current size
// and a requested number of processors to give back, it returns how many the
// application will actually release (possibly more than requested when a
// structural constraint forces a bigger step, possibly fewer when Min is in
// the way).
func (p *Profile) AcceptShrink(current, request int) int {
	if request <= 0 || current <= p.Min {
		return 0
	}
	if current-request < p.Min {
		request = current - p.Min
	}
	if p.acceptShrink != nil {
		a := p.acceptShrink(current, request)
		if a < 0 {
			return 0
		}
		if a > current-p.Min {
			return current - p.Min
		}
		return a
	}
	return request
}

// largestPow2LE returns the largest power of two ≤ n (n ≥ 1).
func largestPow2LE(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// FTProfile returns the malleable NPB FT application: sizes are powers of
// two in [2, 32]. On a grow offer it accepts only up to the largest power of
// two not exceeding current+offer, voluntarily releasing the remainder
// (§VI-A); on a shrink request it steps down to the largest power of two
// that satisfies the request.
func FTProfile() *Profile {
	return &Profile{
		Name:  "FT",
		Class: Malleable,
		Model: FTModel(),
		Min:   2,
		Max:   32,
		acceptGrow: func(current, offer int) int {
			target := largestPow2LE(current + offer)
			if target <= current {
				return 0
			}
			return target - current
		},
		acceptShrink: func(current, request int) int {
			target := largestPow2LE(current - request)
			if target < 2 {
				target = 2
			}
			if target >= current {
				return 0
			}
			return current - target
		},
	}
}

// GadgetProfile returns the malleable GADGET-2 application: any size in
// [2, 46] thanks to its internal load-balancing mechanism (§VI-A).
func GadgetProfile() *Profile {
	return &Profile{
		Name:  "GADGET2",
		Class: Malleable,
		Model: GadgetModel(),
		Min:   2,
		Max:   46,
	}
}

// RigidProfile returns a rigid variant of model running at exactly size
// processors, as used for the 50% rigid jobs of workload Wmr (§VI-C).
func RigidProfile(name string, model RuntimeModel, size int) *Profile {
	return &Profile{Name: name, Class: Rigid, Model: model, Min: size, Max: size}
}
