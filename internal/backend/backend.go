// Package backend is the execution substrate behind the streaming
// sweep driver and koalad: a Backend turns one experiment point (a
// config's full set of seeded replications) into its streaming result.
// experiment.RunSetStreamVia and the koalad dispatcher are policy —
// what to run, in what order, what to do with the result; a Backend is
// mechanism — where the simulations actually execute.
//
// Two backends ship:
//
//   - Local runs points in this process through experiment's one
//     point driver with its streaming sink (experiment.RunStreamContext):
//     one Prepare per point, the seeded replications on a pool of
//     cfg.Parallelism, each folded into an aggregate as it finishes.
//   - Remote shards points across worker koalad daemons by the
//     config's content fingerprint, streams their NDJSON progress
//     back, and fails over to a fallback backend (normally Local)
//     when a worker is unreachable or dies mid-stream.
//
// Determinism is the package contract: the simulation is fully
// determined by the config, so every backend must produce a result
// whose Summary() encoding is byte-identical to Local's for the same
// config — regardless of shard assignment, failover, or whether a
// worker answered from its content-addressed store instead of
// simulating. The same point driver's batch sink (experiment.Run and
// RunSet) stays local only: it retains per-job records, which
// deliberately never cross the wire.
package backend

import (
	"context"

	"repro/internal/experiment"
)

// Health is a backend's capability/liveness report.
type Health struct {
	// Healthy reports whether the backend can currently accept points.
	Healthy bool
	// Detail is a human-readable capability line ("in-process", worker
	// reachability, ...).
	Detail string
	// Workers is the number of execution sites behind the backend: 1
	// for Local, the reachable worker count for Remote.
	Workers int
}

// Backend executes experiment points. Implementations must be safe for
// concurrent RunPoint calls.
type Backend interface {
	// Name identifies the backend in logs, metrics and /healthz.
	Name() string
	// RunPoint executes one point and returns its result. Hooks fire
	// per replication (possibly from multiple goroutines) exactly as
	// with experiment.RunStreamContext; on failover a replication may
	// be reported more than once, but the returned result is always
	// the complete, deterministic point.
	RunPoint(ctx context.Context, cfg experiment.Config, hooks experiment.StreamHooks) (*experiment.StreamResult, error)
	// Health reports whether the backend can take work right now.
	Health(ctx context.Context) Health
}
