package analyzers

import (
	"testing"

	"repro/tools/koalalint/lint/linttest"
)

func TestDetWallTime(t *testing.T) {
	linttest.Run(t, DetWallTime, "detwalltime/sim", "detwalltime/notdet")
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, DetOrder, "detorder/koala")
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, DetRand, "detrand/workload", "detrand/stats")
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, HotPathAlloc, "hotpathalloc/sim")
}

// TestDeterministicScope pins the package sets: the wall-clock edge of the
// system must stay out of the deterministic sweep, and the scheduling
// stack in the hot-path sweep.
func TestDeterministicScope(t *testing.T) {
	for _, p := range []string{
		"repro/internal/sim", "repro/internal/koala", "repro/internal/experiment",
		"repro/internal/stats", "repro/internal/metrics", "repro/internal/workload",
	} {
		if !isDeterministic(p) {
			t.Errorf("isDeterministic(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"repro/internal/server", "repro/internal/store", "repro/internal/backend",
		"repro/internal/parallel", "repro/cmd/koalad", "repro/tools/benchjson",
	} {
		if isDeterministic(p) {
			t.Errorf("isDeterministic(%q) = true, want false", p)
		}
	}
	for _, p := range []string{"repro/internal/sim", "repro/internal/koala", "repro/internal/runner"} {
		if !isHotPath(p) {
			t.Errorf("isHotPath(%q) = false, want true", p)
		}
	}
	if isHotPath("repro/internal/workload") || isHotPath("repro/internal/experiment") {
		t.Error("setup-time packages must not be in the hot-path sweep")
	}
}
