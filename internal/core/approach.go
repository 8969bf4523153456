package core

import "repro/internal/koala"

// Approach is a job-management approach (§V-B): it decides *when* the
// malleability management policies run, and whether running or waiting
// applications take precedence.
type Approach interface {
	Name() string
	// OnPoll runs the periodic management round against a fresh snapshot.
	OnPoll(m *Manager, snap koala.Snapshot)
	// OnProcessorsAvailable reacts to processors returning (job finished).
	OnProcessorsAvailable(m *Manager)
	// OnPlacementBlocked reacts to the queue head being unplaceable; it
	// returns true when room is being made for the job (scanning stops).
	OnPlacementBlocked(m *Manager, j *koala.Job) bool
}

// PRA gives Precedence to Running Applications (§V-B): whenever processors
// become available, running malleable jobs are grown first; waiting jobs are
// only placed with whatever is left once no running malleable job can grow
// further. Jobs are never shrunk.
type PRA struct{}

// Name implements Approach.
func (PRA) Name() string { return "PRA" }

// OnPoll implements Approach: grow running jobs, then let the queue have the
// remainder.
func (PRA) OnPoll(m *Manager, snap koala.Snapshot) {
	m.growAll(snap)
	m.sched.ScanQueue()
}

// OnProcessorsAvailable implements Approach: identical to a poll round with
// a fresh snapshot — first the running applications, then the queue.
func (PRA) OnProcessorsAvailable(m *Manager) {
	m.growAll(m.sched.KIS().Refresh())
	m.sched.ScanQueue()
}

// OnPlacementBlocked implements Approach: PRA never shrinks for waiting
// jobs; they wait for processors to free up naturally.
func (PRA) OnPlacementBlocked(*Manager, *koala.Job) bool { return false }

// PWA gives Precedence to Waiting Applications (§V-B): when the next queued
// job cannot be placed, running malleable jobs are mandatorily shrunk to
// make room for it. Only when even shrinking to minimum sizes cannot free
// enough processors are the running jobs considered for growing.
type PWA struct{}

// Name implements Approach.
func (PWA) Name() string { return "PWA" }

// OnPoll implements Approach: the queue gets precedence; growth happens only
// when no job is waiting.
func (PWA) OnPoll(m *Manager, snap koala.Snapshot) {
	m.sched.ScanQueue()
	if m.sched.QueueLength() == 0 {
		m.growAll(m.sched.KIS().Refresh())
	}
}

// OnProcessorsAvailable implements Approach: "whenever processors become
// available, the placement queue is scanned in order to find a job to be
// placed".
func (PWA) OnProcessorsAvailable(m *Manager) {
	m.sched.ScanQueue()
	if m.sched.QueueLength() == 0 {
		m.growAll(m.sched.KIS().Refresh())
	}
}

// OnPlacementBlocked implements Approach: mandatory shrinks on the cluster
// that can (eventually) host the blocked job. If no cluster can host it even
// with every running malleable job at its minimum, the running jobs are
// grown instead (§V-B) and scanning continues.
func (PWA) OnPlacementBlocked(m *Manager, j *koala.Job) bool {
	i, short, ok := m.blockedSite(j)
	if ok {
		m.shrinkSiteAt(i, short)
	}
	return ok
}

// ApproachByName returns the approach registered under name.
func ApproachByName(name string) (Approach, bool) {
	switch name {
	case "PRA", "pra":
		return PRA{}, true
	case "PWA", "pwa":
		return PWA{}, true
	case "PWAV", "pwav":
		return PWAVoluntary{}, true
	default:
		return nil, false
	}
}
