// Package core implements the paper's primary contribution (§V): the
// malleability manager added to the KOALA scheduler, the two malleability
// management policies — FPSMA (Favour Previously Started Malleable
// Applications) and EGS (Equi-Grow & Shrink) — and the two job-management
// approaches — PRA (Precedence to Running Applications) and PWA (Precedence
// to Waiting Applications). It also provides the Equipartition and Folding
// policies discussed in §III as baselines for ablation.
//
// Policies are applied per cluster (§V-C: malleable applications run in a
// single cluster, no co-allocation), over the running malleable jobs of that
// cluster sorted by start time.
package core

import "repro/internal/koala"

// Policy distributes a grow or shrink amount over the running malleable jobs
// of one cluster (§V-C). Both methods receive the jobs sorted by increasing
// start time (the scheduler's canonical order). Implementations send the
// actual protocol messages via Job.RequestGrow/RequestShrink, whose
// effect shows in the jobs' planned sizes.
type Policy interface {
	Name() string
	Grow(jobs []*koala.Job, growValue int)
	Shrink(jobs []*koala.Job, shrinkValue int)
}

// FPSMA favours previously started malleable applications: growing starts
// from the earliest-started job, shrinking from the latest-started job
// (Fig. 4 of the paper).
type FPSMA struct{}

// Name implements Policy.
func (FPSMA) Name() string { return "FPSMA" }

// Grow implements the FPSMA_GROW procedure: walk jobs in increasing start
// order, offer the whole remaining amount, subtract what each accepts, stop
// at zero.
func (FPSMA) Grow(jobs []*koala.Job, growValue int) {
	for _, j := range jobs {
		if growValue <= 0 {
			break
		}
		growValue -= j.RequestGrow(growValue)
	}
}

// Shrink implements the FPSMA_SHRINK procedure: walk jobs in decreasing
// start order, request the whole remaining amount, subtract what each
// releases, stop at zero.
func (FPSMA) Shrink(jobs []*koala.Job, shrinkValue int) {
	for i := len(jobs) - 1; i >= 0 && shrinkValue > 0; i-- {
		shrinkValue -= jobs[i].RequestShrink(shrinkValue)
	}
}

// EGS (Equi-Grow & Shrink) balances the *available* processors over all
// running malleable jobs (Fig. 5): everyone gets growValue/n, with the
// remainder handed as a +1 bonus to the least recently started jobs when
// growing, and taken as a +1 malus from the most recently started jobs when
// shrinking. Unlike classic equipartition it never mixes grow and shrink
// messages in a single round.
//
// Note: the paper's Fig. 5 pseudo-code assigns the shrink malus with
// "1 if i ≥ growRemainder" over the descending list, which would give the
// malus to n−remainder jobs; we implement the stated intent ("reclaimed
// from the most recently started jobs as a malus", §V-C.2).
type EGS struct{}

// Name implements Policy.
func (EGS) Name() string { return "EGS" }

// Grow implements the EQUI_GROW procedure.
func (EGS) Grow(jobs []*koala.Job, growValue int) {
	if len(jobs) == 0 || growValue <= 0 {
		return
	}
	share := growValue / len(jobs)
	remainder := growValue % len(jobs)
	for i, j := range jobs { // increasing start time
		offer := share
		if i < remainder {
			offer++ // bonus to the least recently started jobs
		}
		if offer == 0 {
			continue
		}
		j.RequestGrow(offer)
	}
}

// Shrink implements the EQUI_SHRINK procedure.
func (EGS) Shrink(jobs []*koala.Job, shrinkValue int) {
	if len(jobs) == 0 || shrinkValue <= 0 {
		return
	}
	share := shrinkValue / len(jobs)
	remainder := shrinkValue % len(jobs)
	for i := range jobs {
		// Walk in decreasing start time; the malus lands on the most
		// recently started jobs (the first of this walk).
		j := jobs[len(jobs)-1-i]
		request := share
		if i < remainder {
			request++
		}
		if request == 0 {
			continue
		}
		j.RequestShrink(request)
	}
}

// Equipartition is the classic baseline of AMPI/McCann–Zahorjan discussed in
// §III: it aims to give every malleable job the same share of the *whole*
// processor pool of the cluster, so one round may both shrink jobs above the
// fair share and grow jobs below it.
type Equipartition struct{}

// Name implements Policy.
func (Equipartition) Name() string { return "EQUI" }

// Grow rebalances towards the fair share: target = (held + available)/n.
func (Equipartition) Grow(jobs []*koala.Job, growValue int) {
	if len(jobs) == 0 || growValue <= 0 {
		return
	}
	pool := growValue
	for _, j := range jobs {
		pool += j.PlannedProcs()
	}
	target := pool / len(jobs)
	freed := 0
	// Shrink the jobs above the fair share first (may mix messages).
	for i := len(jobs) - 1; i >= 0; i-- {
		if over := jobs[i].PlannedProcs() - target; over > 0 {
			freed += jobs[i].RequestShrink(over)
		}
	}
	budget := growValue + freed
	for _, j := range jobs {
		if budget <= 0 {
			break
		}
		if under := target - j.PlannedProcs(); under > 0 {
			offer := under
			if offer > budget {
				offer = budget
			}
			budget -= j.RequestGrow(offer)
		}
	}
}

// Shrink reclaims equally, like EGS.
func (Equipartition) Shrink(jobs []*koala.Job, shrinkValue int) {
	EGS{}.Shrink(jobs, shrinkValue)
}

// Folding is the doubling/halving baseline of Utrera et al. and
// McCann–Zahorjan discussed in §III: growing doubles the earliest-started
// jobs that fit in the budget; shrinking halves the latest-started jobs.
type Folding struct{}

// Name implements Policy.
func (Folding) Name() string { return "FOLD" }

// Grow doubles jobs (earliest first) while the budget allows.
func (Folding) Grow(jobs []*koala.Job, growValue int) {
	for _, j := range jobs {
		cur := j.PlannedProcs()
		if cur <= 0 || cur > growValue {
			continue
		}
		growValue -= j.RequestGrow(cur) // offer exactly +current = doubling
		if growValue <= 0 {
			break
		}
	}
}

// Shrink halves jobs (latest first) until the request is met.
func (Folding) Shrink(jobs []*koala.Job, shrinkValue int) {
	for i := len(jobs) - 1; i >= 0 && shrinkValue > 0; i-- {
		half := jobs[i].PlannedProcs() / 2
		if half <= 0 {
			continue
		}
		shrinkValue -= jobs[i].RequestShrink(half)
	}
}

// PolicyByName returns the policy registered under name.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "FPSMA", "fpsma":
		return FPSMA{}, true
	case "EGS", "egs":
		return EGS{}, true
	case "EQUI", "equi", "equipartition":
		return Equipartition{}, true
	case "FOLD", "fold", "folding":
		return Folding{}, true
	default:
		return nil, false
	}
}
