package sim

import "testing"

// benchQueue measures steady-state push/pop (and optionally cancel+
// reschedule) throughput of the event queue at a resident population of
// n events, for one insert pattern. Everything is preallocated: a
// non-zero allocs/op here is a hot-path regression.
func benchQueue(b *testing.B, n int, next pattern, cancelHeavy bool) {
	var q eventQueue
	events := make([]Event, n)
	rng := NewRNG(1)
	now := 0.0
	for i := range events {
		ev := &events[i]
		ev.time = next(rng, now)
		ev.seq = uint64(i)
		q.push(ev)
	}
	seq := uint64(len(events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cancelHeavy && i%2 == 1 {
			// Cancel a pseudo-random live event and reschedule it — the
			// eager-cancel path under churn.
			ev := &events[int(rng.Float64()*float64(len(events)))]
			if ev.pos >= 0 {
				q.remove(ev)
				ev.time = next(rng, now)
				ev.seq = seq
				seq++
				q.push(ev)
				continue
			}
		}
		ev := q.popMin()
		now = ev.time
		ev.time = next(rng, now)
		ev.seq = seq
		seq++
		q.push(ev)
	}
}

// BenchmarkEventQueue covers the insert regimes at 1024 resident events
// and at 40, about what a replication's queue holds once its workload's
// submissions are queued one at a time; the entries are gated by
// tools/benchjson -compare in CI.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("monotonic", func(b *testing.B) { benchQueue(b, 1024, patterns["monotonic"], false) })
	b.Run("bimodal", func(b *testing.B) { benchQueue(b, 1024, patterns["bimodal"], false) })
	b.Run("farfuture", func(b *testing.B) { benchQueue(b, 1024, patterns["farfuture"], false) })
	b.Run("cancelheavy", func(b *testing.B) { benchQueue(b, 1024, patterns["bimodal"], true) })
	b.Run("monotonic-40", func(b *testing.B) { benchQueue(b, 40, patterns["monotonic"], false) })
	b.Run("bimodal-40", func(b *testing.B) { benchQueue(b, 40, patterns["bimodal"], false) })
}
