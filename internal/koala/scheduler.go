package koala

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/slab"
)

// Hooks is how the malleability manager (package core, §V) plugs into the
// scheduler. A nil hook set gives plain KOALA behaviour: the queue is
// scanned whenever processors become available.
type Hooks interface {
	// Poll fires on every scheduler polling tick with a fresh KIS snapshot;
	// this is where the PRA/PWA approaches run their management round.
	Poll(snap Snapshot)
	// ProcessorsAvailable fires when a job finishes and its processors
	// return. With PRA, running malleable jobs get precedence over the
	// queue; the hook is responsible for eventually calling ScanQueue.
	ProcessorsAvailable()
	// PlacementBlocked fires when the queue head cannot be placed. With
	// PWA it shrinks running malleable jobs to make room; it returns true
	// when room is being made (so the scheduler stops scanning this round).
	PlacementBlocked(j *Job) bool
}

// Config holds the scheduler's tunables.
type Config struct {
	// Policy is the placement policy; all paper experiments use Worst-Fit.
	Policy PlacementPolicy
	// MaxPlacementTries rejects a job after this many failed placement
	// attempts (§IV-A). Zero means unlimited.
	MaxPlacementTries int
	// PollInterval is the period at which the scheduler polls the KIS and
	// triggers job management (§V-B).
	PollInterval float64
	// MRunnerConfig configures the malleable runners the scheduler spawns.
	MRunnerConfig runner.MRunnerConfig
}

// Scheduler is the centralised KOALA scheduler: the co-allocator (CO) that
// decides placements, and the processor claimer (PC) that turns placements
// into GRAM submissions through the runners (§IV-A).
type Scheduler struct {
	engine *sim.Engine
	sites  []*Site
	kis    *KIS
	cfg    Config

	queue []*Job
	jobs  []*Job
	// terminal counts the jobs that finished or were rejected.
	terminal int
	// growMsgs and shrinkMsgs count the grow and shrink messages that
	// reached running malleable jobs (Job.RequestGrow/RequestShrink).
	growMsgs, shrinkMsgs uint64

	// pending counts processors (by site index) claimed for placed jobs
	// whose GRAM submissions are still in flight. The processor claimer
	// subtracts them from every placement view so the submission latency
	// cannot cause double-booking (§IV-A's claiming policy, adapted to
	// immediate claiming).
	pending []int

	// reserved counts processors (by site index) granted to growing
	// malleable jobs but not yet held (stub submissions in flight): the
	// running malleable jobs' planned minus held processors, at least 0
	// per job. Each job's MRunner keeps its share up to date while the
	// job runs (MRunner.ReserveInto). The processor claimer subtracts
	// them from every placement view so that newly arriving jobs cannot
	// double-book processors already promised to running applications.
	reserved []int

	// running holds, per site index, the running malleable jobs sorted by
	// (start time, submission order) — the order both malleability policies
	// consume (§V-C). It is maintained incrementally on job start/finish so
	// RunningMalleableJobsAt is O(jobs-on-site) instead of rescanning every
	// job ever submitted.
	running [][]*Job

	// viewBuf is the reusable scratch backing of placementView's adjusted
	// snapshot; it is valid only for the duration of one placement attempt.
	viewBuf []ProcessorInfo

	// jobMem hands out Job structs and runners holds the malleable
	// runners; handles from either stay valid until Teardown.
	jobMem  slab.Slab[Job]
	runners runner.Slabs

	hooks  Hooks
	ticker *sim.Ticker

	// OnJobStarted/OnJobFinished/OnJobRejected feed the metrics layer.
	OnJobStarted  func(*Job)
	OnJobFinished func(*Job)
	OnJobRejected func(*Job)

	scanning bool
}

// jobPool holds the Job chunks of torn-down schedulers.
var jobPool slab.Pool[Job]

// NewScheduler assembles a scheduler over the sites BuildSites made, in
// site-index order.
func NewScheduler(engine *sim.Engine, sites []*Site, cfg Config) *Scheduler {
	if cfg.Policy == nil {
		cfg.Policy = WorstFit{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5
	}
	s := &Scheduler{
		engine:   engine,
		sites:    sites,
		kis:      NewKIS(engine, sites),
		cfg:      cfg,
		pending:  make([]int, len(sites)),
		reserved: make([]int, len(sites)),
		running:  make([][]*Job, len(sites)),
		viewBuf:  make([]ProcessorInfo, len(sites)),
		jobMem:   slab.New(&jobPool),
		runners:  runner.NewSlabs(),
	}
	s.ticker = sim.NewTicker(engine, cfg.PollInterval, s.pollTick)
	return s
}

// KIS returns the scheduler's information service.
func (s *Scheduler) KIS() *KIS { return s.kis }

// Sites returns the execution sites.
func (s *Scheduler) Sites() []*Site { return s.sites }

// SetHooks installs the malleability manager's hooks.
func (s *Scheduler) SetHooks(h Hooks) { s.hooks = h }

// Stop halts the polling ticker (end of experiment).
func (s *Scheduler) Stop() { s.ticker.Stop() }

// Teardown hands the memory of every job and malleable runner the
// scheduler made to the shared pools for later schedulers. Neither the
// scheduler nor any job or runner it returned may be used afterwards.
func (s *Scheduler) Teardown() {
	s.jobMem.Release()
	s.runners.Release()
}

// Jobs returns every job ever submitted, in submission order.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// Terminal returns how many submitted jobs reached a terminal state
// (Finished or Rejected).
func (s *Scheduler) Terminal() int { return s.terminal }

// Messages returns how many grow and shrink messages reached running
// malleable jobs so far, declined ones included. The malleability manager
// records the difference across each policy round (Figs. 7f and 8f).
func (s *Scheduler) Messages() (grow, shrink uint64) { return s.growMsgs, s.shrinkMsgs }

// QueueLength returns the number of jobs waiting for placement.
func (s *Scheduler) QueueLength() int { return len(s.queue) }

// RunningMalleableJobsAt returns the malleable jobs currently running on
// the site with index i, sorted by increasing start time with ties in
// submission order (the order both malleability policies consume, §V-C).
// The returned slice is the scheduler's live index: callers must not
// modify it, and it is valid only until the next job start or finish.
func (s *Scheduler) RunningMalleableJobsAt(i int) []*Job { return s.running[i] }

// insertRunning adds a just-started malleable job to its site's index,
// keeping the (start time, submission order) sort. Start times are assigned
// from the monotone simulation clock, so the job belongs at the tail except
// for same-instant ties, where submission order decides (the order the
// previous full stable sort produced).
func (s *Scheduler) insertRunning(i int, j *Job) {
	lst := append(s.running[i], j)
	k := len(lst) - 1
	for k > 0 && (lst[k-1].startTime > j.startTime ||
		(lst[k-1].startTime == j.startTime && lst[k-1].seq > j.seq)) {
		lst[k] = lst[k-1]
		k--
	}
	lst[k] = j
	s.running[i] = lst
}

// removeRunning drops a finished malleable job from its site's index.
func (s *Scheduler) removeRunning(i int, j *Job) {
	lst := s.running[i]
	for k, q := range lst {
		if q == j {
			copy(lst[k:], lst[k+1:])
			lst[len(lst)-1] = nil
			s.running[i] = lst[:len(lst)-1]
			return
		}
	}
}

// pollTick is the periodic heartbeat: refresh the KIS (discovering
// background load) and hand control to the malleability manager; without a
// manager, just rescan the queue.
func (s *Scheduler) pollTick() {
	snap := s.kis.Refresh()
	if s.hooks != nil {
		s.hooks.Poll(snap)
		return
	}
	s.ScanQueue()
}

// Submit enters a job into the system and immediately tries to place it.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("job-%d", len(s.jobs))
	}
	j := s.jobMem.Alloc()
	j.Spec, j.state, j.submitTime, j.seq, j.sched = spec, Waiting, s.engine.Now(), len(s.jobs), s
	s.jobs = append(s.jobs, j)
	if !s.tryPlace(j) {
		s.queue = append(s.queue, j)
		if s.rejectIfOverThreshold(j) {
			return j, nil
		}
	}
	return j, nil
}

// rejectIfOverThreshold applies the placement-try threshold of §IV-A; it
// reports whether the job was rejected (and removed from the queue).
func (s *Scheduler) rejectIfOverThreshold(j *Job) bool {
	if s.cfg.MaxPlacementTries <= 0 || j.tries <= s.cfg.MaxPlacementTries {
		return false
	}
	s.removeFromQueue(j)
	j.state = Rejected
	s.terminal++
	if s.OnJobRejected != nil {
		s.OnJobRejected(j)
	}
	return true
}

func (s *Scheduler) removeFromQueue(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// ScanQueue walks the placement queue head to tail, placing every job that
// fits (§IV-A). When a job cannot be placed and the malleability hooks
// report that room is being made for it (PWA mandatory shrinks), scanning
// stops to preserve the queue order.
func (s *Scheduler) ScanQueue() {
	if s.scanning {
		return
	}
	s.scanning = true
	defer func() { s.scanning = false }()
	i := 0
	for i < len(s.queue) {
		j := s.queue[i]
		if s.tryPlace(j) {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			continue
		}
		if s.rejectIfOverThreshold(j) {
			continue
		}
		if s.hooks != nil && s.hooks.PlacementBlocked(j) {
			return
		}
		i++
	}
}

// PendingClaimsAt returns the processors claimed on the site with index i
// for jobs whose GRAM submissions are still in flight.
func (s *Scheduler) PendingClaimsAt(i int) int { return s.pending[i] }

// ReservedAt returns the processors of the site with index i granted to
// its running malleable jobs but not yet held: the sum over them of
// planned minus held processors, each at least 0.
func (s *Scheduler) ReservedAt(i int) int { return s.reserved[i] }

// placementView returns a fresh snapshot with in-flight claims and
// in-flight growth reservations subtracted. The returned snapshot is
// backed by a reusable scratch buffer: it is valid only for the placement
// attempt it was built for.
func (s *Scheduler) placementView() Snapshot {
	snap := s.kis.Refresh()
	for i := range s.sites {
		info := snap.At(i)
		info.Idle -= s.pending[i] + s.reserved[i]
		if info.Idle < 0 {
			info.Idle = 0
		}
		s.viewBuf[i] = info
	}
	return Snapshot{Time: snap.Time, procs: s.viewBuf}
}

// tryPlace runs the placement policy against a claims-adjusted snapshot
// and, on success, claims the processors by starting the job's runner. It
// counts one placement try either way.
func (s *Scheduler) tryPlace(j *Job) bool {
	if j.state != Waiting {
		return false
	}
	j.tries++
	i, ok := s.cfg.Policy.Place(&j.Spec, s.placementView())
	if !ok {
		return false
	}
	s.claim(j, s.sites[i])
	return true
}

// claim is the processor claimer (PC): it turns a placement into a runner.
// Local resource managers on DAS-3 do not support reservations, so claiming
// is immediate GRAM submission; the postponed-claiming policy of [20], [21]
// degenerates to claiming at placement time in this model.
func (s *Scheduler) claim(j *Job, site *Site) {
	j.state = Placing
	j.site, j.claim = site, j.Spec.Size
	s.pending[site.Index()] += j.claim
	if j.Malleable() {
		mr, err := s.runners.NewMRunner(s.engine, site.Gram(), j.Spec.Profile, j.Spec.Size, s.cfg.MRunnerConfig, j)
		if err != nil {
			panic(fmt.Sprintf("koala: claim failed for %s: %v", j.Spec.ID, err))
		}
		j.mrunner = mr
		if err := mr.Start(); err != nil {
			panic(fmt.Sprintf("koala: start failed for %s: %v", j.Spec.ID, err))
		}
		return
	}
	rr, err := runner.NewRigidRunner(s.engine, site.Gram(), j.Spec.Profile, j.Spec.Size, j)
	if err != nil {
		panic(fmt.Sprintf("koala: claim failed for %s: %v", j.Spec.ID, err))
	}
	j.rigid = rr
	if err := rr.Start(); err != nil {
		panic(fmt.Sprintf("koala: start failed for %s: %v", j.Spec.ID, err))
	}
}

func (s *Scheduler) jobStarted(j *Job) {
	j.state = Running
	j.startTime = s.engine.Now()
	// The job's processors are now held at the cluster; drop the claim.
	i := j.site.Index()
	s.pending[i] -= j.claim
	j.claim = 0
	if j.Malleable() {
		s.insertRunning(i, j)
		j.mrunner.ReserveInto(&s.reserved[i])
	}
	if s.OnJobStarted != nil {
		s.OnJobStarted(j)
	}
}

func (s *Scheduler) jobFinished(j *Job) {
	j.state = Finished
	s.terminal++
	j.endTime = s.engine.Now()
	if j.Malleable() {
		s.removeRunning(j.site.Index(), j)
	}
	if s.OnJobFinished != nil {
		s.OnJobFinished(j)
	}
	// Processors just came back: give the malleability manager precedence,
	// or rescan the queue directly in plain-KOALA mode. Deferred through
	// the engine so the GRAM releases settle first; the scheduler is its
	// own pre-bound handler so the per-job-finish event allocates nothing.
	s.engine.ImmediatelyOp(s, opProcessorsReturned)
}

// opProcessorsReturned is the Scheduler's only handler op: a finished
// job's processors settled back at GRAM.
const opProcessorsReturned = 0

// OnEvent implements sim.Handler for the deferred processors-returned
// notification scheduled by jobFinished.
func (s *Scheduler) OnEvent(int) {
	if s.hooks != nil {
		s.hooks.ProcessorsAvailable()
	} else {
		s.ScanQueue()
	}
}
