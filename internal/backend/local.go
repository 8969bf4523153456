package backend

import (
	"context"

	"repro/internal/experiment"
)

// Local executes points in this process: experiment.RunStreamContext,
// the point driver with its streaming sink, on a pool of
// cfg.Parallelism per point. It is the default backend of every
// driver, and the failover target of Remote. The zero value is ready
// to use.
type Local struct{}

// Name implements Backend.
func (Local) Name() string { return "local" }

// RunPoint implements Backend on the in-process pool.
func (Local) RunPoint(ctx context.Context, cfg experiment.Config, hooks experiment.StreamHooks) (*experiment.StreamResult, error) {
	return experiment.RunStreamContext(ctx, cfg, hooks)
}
