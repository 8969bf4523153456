package runner

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/gram"
	"repro/internal/sim"
)

// RigidRunner runs a rigid job, or a moldable one once its size is fixed:
// one GRAM job of size processors at one site, and one application
// execution at that size once the GRAM job is active. It is KOALA's
// ordinary runner (PRunner/CRunner in Fig. 1), which needs no
// malleability machinery.
type RigidRunner struct {
	engine  *sim.Engine
	svc     *gram.Service
	profile *app.Profile
	size    int
	lc      Lifecycle

	job *gram.Job
	// exec points at execVal once the application starts.
	exec    *app.Execution
	execVal app.Execution

	started bool
}

// NewRigidRunner builds a runner for size processors of profile at svc;
// lc receives the job's start and finish. size must lie within the
// profile's bounds: a moldable profile may pick any size in its range, a
// rigid profile must use its fixed size.
func NewRigidRunner(engine *sim.Engine, svc *gram.Service, profile *app.Profile, size int, lc Lifecycle) (*RigidRunner, error) {
	if svc == nil || profile == nil {
		return nil, fmt.Errorf("runner: a rigid job needs a GRAM service and a profile")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if profile.Class == app.Malleable {
		// §V-C: malleable jobs run on an MRunner.
		return nil, fmt.Errorf("runner: RigidRunner cannot run malleable profile %s", profile.Name)
	}
	if size < profile.Min || size > profile.Max {
		return nil, fmt.Errorf("runner: size %d outside [%d,%d] for %s",
			size, profile.Min, profile.Max, profile.Name)
	}
	return &RigidRunner{engine: engine, svc: svc, profile: profile, size: size, lc: lc}, nil
}

// Nodes returns the processors the job holds: its size once the GRAM job
// is active, else 0.
func (r *RigidRunner) Nodes() int {
	if r.job != nil && r.job.State() == gram.Active {
		return r.job.Nodes
	}
	return 0
}

// Execution exposes the application execution (nil before start).
func (r *RigidRunner) Execution() *app.Execution { return r.exec }

// Start submits the job's GRAM job.
func (r *RigidRunner) Start() error {
	if r.started {
		return fmt.Errorf("runner: rigid %s started twice", r.profile.Name)
	}
	r.started = true
	j, err := r.svc.Submit(r.size, r)
	if err != nil {
		return err
	}
	r.job = j
	return nil
}

// JobActive implements gram.Activator: the job holds its nodes, so the
// application starts.
func (r *RigidRunner) JobActive(*gram.Job) {
	r.exec = &r.execVal
	r.exec.Start(r.engine, r.profile, r.size, r.onAppFinished)
	r.lc.JobStarted()
}

func (r *RigidRunner) onAppFinished() {
	r.svc.Release(r.job)
	r.lc.JobFinished()
}
