package runner

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/gram"
	"repro/internal/sim"
)

// Component is one piece of a rigid job: size processors of profile at
// one site's GRAM service.
type Component struct {
	Svc     *gram.Service
	Profile *app.Profile
	Size    int
}

// RigidRunner runs a rigid job, or a moldable one once its size is fixed:
// one GRAM job per component, and a single application execution at the
// summed size once every component is active. With one component it is
// KOALA's ordinary runner (PRunner/CRunner in Fig. 1), which needs no
// malleability machinery; with several it is KOALA's processor
// co-allocation (§IV-A). Inter-cluster communication overhead is not
// modeled separately; it is assumed to be folded into the application's
// runtime model, which is acceptable because the paper's malleability
// experiments do not use co-allocation (§V-C).
type RigidRunner struct {
	engine *sim.Engine
	comps  []Component
	lc     Lifecycle

	// jobs[i] is component i's GRAM job; jobsBuf backs the
	// single-component case.
	jobs    []*gram.Job
	jobsBuf [1]*gram.Job
	active  int

	// exec points at execVal once the application starts. pinned is the
	// execution's profile: the first component's, with [Min,Max] pinned
	// to the summed size so the executor accepts the constant size.
	exec    *app.Execution
	execVal app.Execution
	pinned  app.Profile

	started  bool
	running  bool
	finished bool
}

// NewRigidRunner builds a runner for the given components; it keeps comps,
// and lc receives the job's start and finish. Each component's size must
// lie within its profile's bounds: moldable profiles may pick any size in
// their range, rigid profiles must use their fixed size.
func NewRigidRunner(engine *sim.Engine, comps []Component, lc Lifecycle) (*RigidRunner, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("runner: a rigid job needs at least one component")
	}
	for i, c := range comps {
		if c.Svc == nil || c.Profile == nil {
			return nil, fmt.Errorf("runner: component %d has no GRAM service or profile", i)
		}
		if err := c.Profile.Validate(); err != nil {
			return nil, err
		}
		if c.Profile.Class == app.Malleable {
			// §V-C: malleable jobs run single-component, on an MRunner.
			return nil, fmt.Errorf("runner: RigidRunner cannot run malleable profile %s", c.Profile.Name)
		}
		if c.Size < c.Profile.Min || c.Size > c.Profile.Max {
			return nil, fmt.Errorf("runner: component %d size %d outside [%d,%d] for %s",
				i, c.Size, c.Profile.Min, c.Profile.Max, c.Profile.Name)
		}
	}
	r := &RigidRunner{engine: engine, comps: comps, lc: lc}
	r.jobs = r.jobsBuf[:0]
	return r, nil
}

// TotalSize returns the summed component sizes: the application's
// processor count.
func (r *RigidRunner) TotalSize() int {
	total := 0
	for _, c := range r.comps {
		total += c.Size
	}
	return total
}

// Nodes returns the processors of the components whose GRAM jobs are
// active.
func (r *RigidRunner) Nodes() int {
	total := 0
	for _, j := range r.jobs {
		if j.State() == gram.Active {
			total += j.Nodes
		}
	}
	return total
}

// Running reports whether the application is currently executing.
func (r *RigidRunner) Running() bool { return r.running }

// Finished reports whether the application has completed.
func (r *RigidRunner) Finished() bool { return r.finished }

// Execution exposes the application execution (nil before start).
func (r *RigidRunner) Execution() *app.Execution { return r.exec }

// Start submits one GRAM job per component.
func (r *RigidRunner) Start() error {
	if r.started {
		return fmt.Errorf("runner: rigid %s started twice", r.comps[0].Profile.Name)
	}
	r.started = true
	for _, c := range r.comps {
		j, err := c.Svc.Submit(c.Size, r)
		if err != nil {
			return err
		}
		r.jobs = append(r.jobs, j)
	}
	return nil
}

// JobActive implements gram.Activator: one component holds its nodes.
// The application starts once every component does.
func (r *RigidRunner) JobActive(*gram.Job) {
	r.active++
	if r.active < len(r.comps) {
		return
	}
	r.running = true
	size := r.TotalSize()
	p := r.comps[0].Profile
	r.pinned = app.Profile{Name: p.Name, Class: p.Class, Model: p.Model, Min: size, Max: size}
	r.exec = &r.execVal
	r.exec.Start(r.engine, &r.pinned, size, r.onAppFinished)
	r.lc.JobStarted()
}

func (r *RigidRunner) onAppFinished() {
	r.running = false
	r.finished = true
	for i, j := range r.jobs {
		r.comps[i].Svc.Release(j)
	}
	r.lc.JobFinished()
}
