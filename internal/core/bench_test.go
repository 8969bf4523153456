package core

import (
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/gram"
	"repro/internal/koala"
	"repro/internal/runner"
)

// BenchmarkGrowShrinkRound measures the malleability message path from
// manager to DYNACO: per op, one EGS grow round and one EGS shrink round
// on a site with 8 running malleable jobs, each message answered by the
// job's MRunner and executed by its DYNACO instance (stub acquisition and
// recruitment, then the release), with the engine run until the
// adaptations settle. The jobs never finish, so every op is the same
// work; msgs/op is exact (8 grow and 8 shrink messages).
func BenchmarkGrowShrinkRound(b *testing.B) {
	const jobs, size, step, rebuild = 8, 10, 2, 1024
	forever := &app.Profile{Name: "forever", Class: app.Malleable, Min: 2, Max: 46,
		Model: app.NewTableModel("forever", []app.TablePoint{{Procs: 1, Time: 1e15}})}
	var sys *System
	build := func() {
		sys = NewSystem(SystemConfig{
			Grid: cluster.NewMulticluster(cluster.New("A", 128)),
			Gram: gram.Config{SubmitLatency: 1, ReleaseLatency: 0.5},
			Scheduler: koala.Config{
				Policy:        koala.WorstFit{},
				PollInterval:  1e12, // no polls: the benchmark drives the rounds
				MRunnerConfig: runner.MRunnerConfig{AcquireTimeout: 60},
			},
			Manager: ManagerConfig{Policy: EGS{}, Approach: passive{}},
		})
		for k := 0; k < jobs; k++ {
			if _, err := sys.Scheduler.Submit(malleableSpec(fmt.Sprint("j", k), forever, size)); err != nil {
				b.Fatal(err)
			}
		}
		sys.Engine.RunUntil(5)
		if n := len(sys.Scheduler.RunningMalleableJobsAt(0)); n != jobs {
			b.Fatalf("%d jobs running, want %d", n, jobs)
		}
	}
	// round returns how many messages the two rounds sent.
	round := func() uint64 {
		g0, s0 := sys.Scheduler.Messages()
		sys.Manager.growSiteAt(0, jobs*step)
		sys.Manager.shrinkSiteAt(0, jobs*step)
		sys.Engine.RunUntil(sys.Engine.Now() + 10)
		g, s := sys.Scheduler.Messages()
		return g - g0 + s - s0
	}
	build()
	round() // warm the queues, slabs and series before timing
	var msgs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuild == 0 {
			// Every stub is a fresh GRAM job: bound the world's memory.
			b.StopTimer()
			sys.Teardown()
			build()
			b.StartTimer()
		}
		msgs += round()
	}
	b.StopTimer()
	for _, j := range sys.Scheduler.RunningMalleableJobsAt(0) {
		if j.CurrentProcs() != size || j.HeldProcs() != size {
			b.Fatalf("job %s at %d procs holding %d after settling, want %d", j.Spec.ID, j.CurrentProcs(), j.HeldProcs(), size)
		}
	}
	sys.Teardown()
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}
