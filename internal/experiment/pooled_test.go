package experiment

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestPooledMemoryStaysInItsWorld runs every golden config twice, in
// shuffled order and concurrently, so that replications keep handing
// each other pooled memory. Each run must still reproduce its golden
// entry exactly: a field that survives a release unzeroed, or a result
// that points into a released world, shows up as a diverged run.
func TestPooledMemoryStaysInItsWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs are full simulations")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	combos := goldenCombos()
	if len(want) != len(combos) {
		t.Fatalf("golden file has %d runs, want %d", len(want), len(combos))
	}
	order := make([]int, 0, 2*len(combos))
	for i := range combos {
		order = append(order, i, i)
	}
	rand.New(rand.NewPCG(13, 1)).Shuffle(len(order), func(a, b int) {
		order[a], order[b] = order[b], order[a]
	})
	for n, i := range order {
		cfg := combos[i]
		t.Run(fmt.Sprintf("%02d-%s", n, cfg.Name), func(t *testing.T) {
			t.Parallel()
			if got := goldenOf(t, cfg); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s diverged from its golden run after pooled reuse", cfg.Name)
			}
		})
	}
}

// replicationByteBudget bounds the bytes one steady-state batched
// replication of Wm(1)/EGS/PRA allocates. With the world's memory
// pooled it is about 280 KB — the job records, utilisation series and
// generated workload that a replication returns or needs fresh; before,
// every event, GRAM and LRM job, allocation, KOALA job and malleable
// runner was allocated anew, about 1.56 MB.
const replicationByteBudget = 512 << 10

// TestReplicationByteBudget pins that a replication reuses the pooled
// memory of the ones before it instead of allocating its world afresh.
func TestReplicationByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale replications")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	prep, err := Prepare(Config{Workload: workload.Wm(1), Policy: "EGS", Approach: "PRA"})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) {
		if _, err := prep.RunOnce(seed); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // fill the pools
	const reps = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := uint64(2); seed < 2+reps; seed++ {
		run(seed)
	}
	runtime.ReadMemStats(&after)
	perRep := (after.TotalAlloc - before.TotalAlloc) / reps
	if perRep > replicationByteBudget {
		t.Errorf("a steady-state replication allocates %d bytes, budget %d", perRep, replicationByteBudget)
	}
	t.Logf("bytes per replication: %d (budget %d)", perRep, replicationByteBudget)
}
