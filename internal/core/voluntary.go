package core

import (
	"slices"

	"repro/internal/koala"
)

// This file implements the §VIII extensions on the manager side:
// application-initiated grow requests and an incentive-style PWA variant
// that asks for voluntary shrinks before falling back to mandatory ones.

// AppGrowRequest implements runner.AppGrowHandler: an application asks for
// more processors (§II-C, initiative of change). The manager grants at most
// the site's current growth headroom — accommodating application-initiated
// grows never preempts other jobs (they are voluntary for the scheduler,
// §VIII).
func (m *Manager) AppGrowRequest(site string, amount int) int {
	if amount <= 0 {
		return 0
	}
	i := slices.IndexFunc(m.sched.Sites(), func(s *koala.Site) bool { return s.Name() == site })
	if i < 0 {
		return 0
	}
	avail := m.availableForGrowth(m.sched.KIS().Refresh(), i)
	if avail <= 0 {
		return 0
	}
	grant := amount
	if grant > avail {
		grant = avail
	}
	m.appGrowMsgs++
	// Keep the edge trigger consistent: the grant consumes headroom.
	m.prevAvail[i] = avail - grant
	m.prevSeen[i] = true
	return grant
}

// AppGrowRequests returns how many application-initiated grow requests the
// manager granted (fully or partially).
func (m *Manager) AppGrowRequests() uint64 { return m.appGrowMsgs }

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
