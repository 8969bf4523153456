// Package parallel provides a small bounded worker pool for the
// embarrassingly parallel fan-outs in the experiment layer: independent
// seeded replications and independent sweep points. Each task owns an
// order-preserving output slot chosen by its index, so the pooled output of
// a parallel sweep is byte-identical to the serial order regardless of the
// order in which workers finish.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes a
// non-positive parallelism: one worker per usable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded pool of
// workers goroutines: ForEachShared over a private limiter of that size
// (workers <= 0 means DefaultWorkers). With workers == 1 the indices run
// one at a time, in order, on a single pool goroutine — not on the
// calling one. fn must write its result into a slot owned by index i
// (e.g. out[i] = ...); fn calls for distinct indices may run
// concurrently, so they must not share mutable state.
//
// The first error cancels the shared context and stops the pool from
// dispatching further indices; calls already in flight run to completion.
// ForEach returns the error of the lowest failing index among those that
// ran. A call that returns the pool context's own error after that
// cancellation only echoes it (say, a nested pool cut short) and does not
// count as failing, so it never masks the cause. If no task failed,
// ForEach returns nil when all n completed, and the parent context's
// error when a parent cancellation cut the pool short.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return ForEachShared(ctx, n, NewLimiter(workers), fn)
}

// Limiter is a shared concurrency budget: a counting semaphore that
// several ForEachShared pools draw task slots from, so one global bound
// covers a whole sweep no matter how its points are grouped into pools.
// The zero value is invalid; use NewLimiter.
type Limiter chan struct{}

// NewLimiter returns a budget of n concurrent tasks (n <= 0 means
// DefaultWorkers).
func NewLimiter(n int) Limiter {
	if n <= 0 {
		n = DefaultWorkers()
	}
	return make(Limiter, n)
}

// ForEachShared is ForEach with the worker bound replaced by lim: fn
// runs only while holding one of lim's slots, so concurrent
// ForEachShared calls over the same limiter never execute more than
// cap(lim) tasks at once between them. Error and cancellation semantics
// are ForEach's.
func ForEachShared(ctx context.Context, n int, lim Limiter, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := cap(lim)
	if workers > n {
		workers = n
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				// Tasks not yet holding a slot stop silently on
				// cancellation; whoever canceled owns the error.
				select {
				case lim <- struct{}{}:
				case <-ctx.Done():
					return
				}
				err := fn(ctx, i)
				<-lim
				switch {
				case err == nil:
					done.Add(1)
				case ctx.Err() != nil && errors.Is(err, ctx.Err()):
					// Only an echo of the cancellation (say, a nested
					// pool cut short): it must not mask the error
					// that canceled.
				default:
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if int(done.Load()) == n {
		return nil
	}
	return parent.Err()
}
