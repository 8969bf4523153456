package experiment

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkSummarizeReplication reduces one paper-sized replication (Wm,
// 300 jobs) to its streaming form: the per-field aggregate over every
// record and the mean utilisation over the makespan, the work a
// streaming run does per replication once the simulation has ended.
func BenchmarkSummarizeReplication(b *testing.B) {
	r, err := runSeed(Config{Workload: workload.Wm(1)}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, _ := summarizeReplication(0, r); rep.Jobs != len(r.Records) {
			b.Fatalf("summarized %d jobs, want %d", rep.Jobs, len(r.Records))
		}
	}
}

// BenchmarkEncodeSummary renders a four-replication point's summary in
// its canonical stored form: the bytes koalad writes to its result store
// and sends as a run's summary event.
func BenchmarkEncodeSummary(b *testing.B) {
	res, err := RunStream(Config{Workload: workload.Wm(1), Runs: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sum := res.Summary()
	// The first call builds encoding/json's cached encoders; warm them so
	// a one-iteration run counts what every later call allocates.
	if _, err := EncodeSummary(sum); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSummary(sum); err != nil {
			b.Fatal(err)
		}
	}
}
