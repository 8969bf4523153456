// Package obs is the cluster's observability plane: run lifecycle
// traces, latency histograms with Prometheus text exposition, slog
// construction helpers and a passive simulation-statistics collector —
// all on the standard library only.
//
// The package sits deliberately outside the deterministic simulation
// core (see docs/determinism.md): traces, histograms and loggers read
// the wall clock, which the simulation packages must never do. SimStats
// holds only simulated time and event counts, and nothing inside the
// simulation calls it: the experiment driver adds each replication's
// totals once, after the replication has run.
package obs
