package core

import "repro/internal/koala"

// This file implements the §VIII incentive-style PWA variant on the
// manager side: it asks for voluntary shrinks before falling back to
// mandatory ones.

// voluntaryShrinkSiteAt asks the malleable jobs of site i *politely* for
// need processors, latest-started first (the FPSMA shrink order), until
// the need is met, and returns how many they agreed to release. Jobs
// decline freely (§II-D). Every job asked counts as one shrink message.
func (m *Manager) voluntaryShrinkSiteAt(i, need int) int {
	jobs := m.sched.RunningMalleableJobsAt(i)
	total, asked := 0, 0
	for k := len(jobs) - 1; k >= 0 && need > 0; k-- {
		released := jobs[k].RequestVoluntaryShrink(need)
		asked++
		need -= released
		total += released
	}
	m.record(0, asked)
	return total
}

// PWAVoluntary is the incentive-aware variant of PWA suggested by §VIII
// ("we plan to study how to affect malleability management policies in
// order to incite applications to react to volunteer shrinks"): when the
// queue head cannot be placed, the manager first *asks* running jobs to
// shrink; only the shortfall that remains after the voluntary round is
// reclaimed mandatorily.
type PWAVoluntary struct{}

// Name implements Approach.
func (PWAVoluntary) Name() string { return "PWAV" }

// OnPoll implements Approach (same schedule as PWA).
func (PWAVoluntary) OnPoll(m *Manager, snap koala.Snapshot) {
	PWA{}.OnPoll(m, snap)
}

// OnProcessorsAvailable implements Approach (same as PWA).
func (PWAVoluntary) OnProcessorsAvailable(m *Manager) {
	PWA{}.OnProcessorsAvailable(m)
}

// OnPlacementBlocked implements Approach: voluntary first, mandatory for
// the remainder, on the site PWA would shrink.
func (PWAVoluntary) OnPlacementBlocked(m *Manager, j *koala.Job) bool {
	i, short, ok := m.blockedSite(j)
	if !ok {
		return false
	}
	if released := m.voluntaryShrinkSiteAt(i, short); released < short {
		m.shrinkSiteAt(i, short-released)
	}
	return true
}
