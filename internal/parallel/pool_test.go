package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndexInOrderSlots(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 50)
		err := ForEach(context.Background(), len(out), workers, func(_ context.Context, i int) error {
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestFailingIndex(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("task %d failed", i) }
	// Serial: fails at the first bad index, later tasks never run.
	ran := 0
	err := ForEach(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran++
		if i >= 3 {
			return boom(i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Fatalf("serial err = %v", err)
	}
	if ran != 4 {
		t.Fatalf("serial ran %d tasks, want 4", ran)
	}
	// Parallel: a barrier holds every task in flight until all four have
	// started, so all of them run, indices 1-3 all fail, and the lowest
	// failing index's error must win.
	var entered sync.WaitGroup
	entered.Add(4)
	err = ForEach(context.Background(), 4, 4, func(_ context.Context, i int) error {
		entered.Done()
		entered.Wait()
		if i >= 1 {
			return boom(i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 1 failed" {
		t.Fatalf("parallel err = %v", err)
	}
}

func TestForEachCancelsPoolOnFirstError(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), n, 4, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		// Block until the failure cancels the pool, so no worker can churn
		// through the remaining indices before the cancellation lands.
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("task %d never saw cancellation", i)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The error cancels dispatch: only the tasks already picked up by the 4
	// workers (plus at most one extra per worker racing the cancel) start.
	if got := started.Load(); got > 16 {
		t.Fatalf("%d of %d tasks started after first error", got, n)
	}
}

func TestForEachHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ForEach(ctx, 8, 1, func(context.Context, int) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("ran %d tasks under a canceled context", calls)
	}
}

// TestForEachSharedBoundsAcrossPools is the limiter's contract: two
// pools drawing from one budget never exceed it combined, and every
// index of both pools still runs into its own slot.
func TestForEachSharedBoundsAcrossPools(t *testing.T) {
	lim := NewLimiter(2)
	var inFlight, peak atomic.Int64
	body := func(out []int) func(context.Context, int) error {
		return func(_ context.Context, i int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			out[i] = i + 1
			return nil
		}
	}
	a := make([]int, 20)
	b := make([]int, 20)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = ForEachShared(context.Background(), len(a), lim, body(a)) }()
	go func() { defer wg.Done(); errs[1] = ForEachShared(context.Background(), len(b), lim, body(b)) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeded the shared budget 2", p)
	}
	for i := range a {
		if a[i] != i+1 || b[i] != i+1 {
			t.Fatalf("slot %d = %d/%d", i, a[i], b[i])
		}
	}
}

// TestForEachSharedPropagatesErrors mirrors the ForEach semantics: the
// first error cancels dispatch and wins even when later-queued tasks
// are still blocked acquiring a slot, and a pre-canceled parent runs
// nothing.
func TestForEachSharedPropagatesErrors(t *testing.T) {
	lim := NewLimiter(1)
	boom := errors.New("boom")
	ran := 0
	err := ForEachShared(context.Background(), 10, lim, func(_ context.Context, i int) error {
		ran++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran > 3 {
		t.Fatalf("ran %d tasks after the failure", ran)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err = ForEachShared(ctx, 4, lim, func(context.Context, int) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("ran %d tasks under a canceled context", calls)
	}
}

// TestForEachCancellationEchoDoesNotMaskCause: a task cut short by the
// pool's cancellation (a nested pool, say) returns the context's error.
// That echo must not win over the failure that canceled, even from a
// lower index; with no failure, the parent's cancellation is returned.
func TestForEachCancellationEchoDoesNotMaskCause(t *testing.T) {
	boom := errors.New("boom")
	echo := func(ctx context.Context) error {
		<-ctx.Done()
		return fmt.Errorf("cut short: %w", ctx.Err())
	}
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		return echo(ctx)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = ForEach(ctx, 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			cancel()
		}
		return echo(ctx)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the parent's context.Canceled", err)
	}
}
