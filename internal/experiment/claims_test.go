package experiment

import (
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// These tests pin the paper's qualitative findings (§VII) at full scale:
// the DAS-3 grid, 300-job workloads. They are the reproduction's regression
// suite — if a refactor flips who wins, these fail.

var (
	praOnce sync.Once
	praSet  *Set
	praErr  error

	pwaOnce sync.Once
	pwaSet  *Set
	pwaErr  error
)

func praResults(t *testing.T) *Set {
	t.Helper()
	praOnce.Do(func() {
		praSet, praErr = RunSet("PRA", PRACombos(), Config{Runs: 2, Seed: 1})
	})
	if praErr != nil {
		t.Fatal(praErr)
	}
	return praSet
}

func pwaResults(t *testing.T) *Set {
	t.Helper()
	pwaOnce.Do(func() {
		pwaSet, pwaErr = RunSet("PWA", PWACombos(), Config{Runs: 2, Seed: 1})
	})
	if pwaErr != nil {
		t.Fatal(pwaErr)
	}
	return pwaSet
}

func TestClaimAllJobsComplete(t *testing.T) {
	for _, set := range []*Set{praResults(t), pwaResults(t)} {
		for _, label := range set.Labels {
			r := set.Results[label]
			want := 300 * len(r.Runs)
			if len(r.Pooled) != want {
				t.Errorf("%s/%s: %d records, want %d", set.Approach, label, len(r.Pooled), want)
			}
			for _, run := range r.Runs {
				if run.Rejected != 0 {
					t.Errorf("%s/%s: %d rejected jobs", set.Approach, label, run.Rejected)
				}
			}
		}
	}
}

// §VII-A: "the Wm workload results in better performance than the Wmr
// workload, which means that malleability makes applications actually
// perform better" (Figs. 7c, 7d).
func TestClaimMalleabilityImprovesPerformance(t *testing.T) {
	set := praResults(t)
	for _, policy := range []string{"FPSMA", "EGS"} {
		wm := set.Results[policy+"/Wm"]
		wmr := set.Results[policy+"/Wmr"]
		if wm.MeanExecution() >= wmr.MeanExecution() {
			t.Errorf("%s: exec Wm %.1f ≥ Wmr %.1f", policy, wm.MeanExecution(), wmr.MeanExecution())
		}
		if wm.MeanResponse() >= wmr.MeanResponse() {
			t.Errorf("%s: response Wm %.1f ≥ Wmr %.1f", policy, wm.MeanResponse(), wmr.MeanResponse())
		}
	}
}

// malleableOnly returns the malleable records, app's only unless app is
// empty.
func malleableOnly(recs []metrics.JobRecord, app string) []metrics.JobRecord {
	var out []metrics.JobRecord
	for _, r := range recs {
		if r.Malleable && (app == "" || r.App == app) {
			out = append(out, r)
		}
	}
	return out
}

// stuckAtMin returns the fraction of the records that never grew beyond
// their minimal size of 2 processors.
func stuckAtMin(recs []metrics.JobRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for _, rec := range recs {
		if rec.MaxProcs <= 2 {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// §VII-A: "EGS makes all jobs grow every time it is initiated. Hence, even
// jobs that have been started recently grow, and only few jobs do not grow
// beyond their minimal size" — while FPSMA leaves short applications stuck
// at the minimum (Fig. 7a).
func TestClaimEGSLeavesFewerJobsStuck(t *testing.T) {
	set := praResults(t)
	egs := stuckAtMin(malleableOnly(set.Results["EGS/Wm"].Pooled, ""))
	fpsma := stuckAtMin(malleableOnly(set.Results["FPSMA/Wm"].Pooled, ""))
	if egs >= fpsma {
		t.Errorf("stuck-at-min fraction: EGS %.2f ≥ FPSMA %.2f", egs, fpsma)
	}
}

// §VII-A: with FPSMA, short applications (FT, 1–2 minutes) terminate before
// it is their turn to grow far more often than the long GADGET-2 jobs.
func TestClaimFPSMAStrandsShortJobs(t *testing.T) {
	set := praResults(t)
	recs := set.Results["FPSMA/Wm"].Pooled
	ft := stuckAtMin(malleableOnly(recs, "FT"))
	gadget := stuckAtMin(malleableOnly(recs, "GADGET2"))
	if ft <= gadget {
		t.Errorf("stuck-at-min: FT %.2f ≤ GADGET %.2f under FPSMA", ft, gadget)
	}
}

// §VII-A: "the number of grow operations is much higher when all jobs are
// malleable (workload Wm). It is also higher with the EGS policy than with
// FPSMA" (Fig. 7f).
func TestClaimGrowMessageCounts(t *testing.T) {
	set := praResults(t)
	egsWm := set.Results["EGS/Wm"].TotalOps()
	fpsmaWm := set.Results["FPSMA/Wm"].TotalOps()
	egsWmr := set.Results["EGS/Wmr"].TotalOps()
	if egsWm <= fpsmaWm {
		t.Errorf("grow messages: EGS/Wm %.0f ≤ FPSMA/Wm %.0f", egsWm, fpsmaWm)
	}
	if egsWm <= egsWmr {
		t.Errorf("grow messages: EGS/Wm %.0f ≤ EGS/Wmr %.0f", egsWm, egsWmr)
	}
}

// §VII-A: PRA never shrinks.
func TestClaimPRANeverShrinks(t *testing.T) {
	set := praResults(t)
	for _, label := range set.Labels {
		for _, run := range set.Results[label].Runs {
			if run.ShrinkOps.Len() != 0 {
				t.Errorf("%s: PRA produced shrink operations", label)
			}
		}
	}
}

// §VII-B: under PWA with the loaded workloads "many of the jobs are stuck
// at their minimal size, whatever the workload and the policy" — more than
// under PRA (Figs. 7a vs 8a).
func TestClaimPWAStrandsJobsAtMinimum(t *testing.T) {
	pra := praResults(t)
	pwa := pwaResults(t)
	praStuck := stuckAtMin(malleableOnly(pra.Results["FPSMA/Wm"].Pooled, ""))
	pwaStuck := stuckAtMin(malleableOnly(pwa.Results["FPSMA/W'm"].Pooled, ""))
	if pwaStuck <= praStuck {
		t.Errorf("stuck-at-min: PWA %.2f ≤ PRA %.2f", pwaStuck, praStuck)
	}
}

// §VII-B: GADGET-2 execution times under PWA are notably higher than under
// PRA (about 30% in the paper, Fig. 8c).
func TestClaimPWAExecutionTimesHigher(t *testing.T) {
	pra := praResults(t)
	pwa := pwaResults(t)
	g := func(r *Result) float64 {
		var execs []float64
		for _, rec := range r.Pooled {
			if rec.App == "GADGET2" {
				execs = append(execs, rec.ExecutionTime)
			}
		}
		return stats.Mean(execs)
	}
	for _, policy := range []string{"FPSMA", "EGS"} {
		praT := g(pra.Results[policy+"/Wm"])
		pwaT := g(pwa.Results[policy+"/W'm"])
		if pwaT <= praT {
			t.Errorf("%s: GADGET exec PWA %.1f ≤ PRA %.1f", policy, pwaT, praT)
		}
	}
}

// §VII-B: PWA performs mandatory shrinks, and EGS sends more malleability
// messages than FPSMA (Fig. 8f).
func TestClaimPWAShrinksAndEGSMessagesDominate(t *testing.T) {
	set := pwaResults(t)
	shrank := false
	for _, label := range set.Labels {
		for _, run := range set.Results[label].Runs {
			if run.ShrinkOps.Len() > 0 {
				shrank = true
			}
		}
	}
	if !shrank {
		t.Error("PWA never shrank under load")
	}
	if egs, fpsma := set.Results["EGS/W'm"].TotalOps(), set.Results["FPSMA/W'm"].TotalOps(); egs <= fpsma {
		t.Errorf("messages: EGS/W'm %.0f ≤ FPSMA/W'm %.0f", egs, fpsma)
	}
}

// §VII-B: PWA response times under load carry substantial wait, far beyond
// the lightly loaded PRA regime where jobs start almost immediately
// (Figs. 7d vs 8d; the paper attributes the difference to "higher wait
// time").
func TestClaimPWAWaitTimesExceedPRA(t *testing.T) {
	pra := praResults(t)
	pwa := pwaResults(t)
	meanWait := func(r *Result) float64 {
		var ws []float64
		for _, rec := range r.Pooled {
			ws = append(ws, rec.WaitTime)
		}
		return stats.Mean(ws)
	}
	for _, policy := range []string{"FPSMA", "EGS"} {
		praW := meanWait(pra.Results[policy+"/Wm"])
		pwaW := meanWait(pwa.Results[policy+"/W'm"])
		if pwaW <= praW {
			t.Errorf("%s: wait PWA %.1f ≤ PRA %.1f", policy, pwaW, praW)
		}
	}
}

// Utilisation sanity: the platform is busier under the loaded PWA
// workloads than the utilisation floor, and never exceeds the 272 nodes of
// DAS-3 (Figs. 7e, 8e). A batch keeps only its plotted run's series, so
// the other runs are rebuilt, each from its own seed, to check every
// peak.
func TestClaimUtilizationBounds(t *testing.T) {
	for _, set := range []*Set{praResults(t), pwaResults(t)} {
		for _, label := range set.Labels {
			res := set.Results[label]
			prep, err := Prepare(res.Config)
			if err != nil {
				t.Fatal(err)
			}
			for i, run := range res.Runs {
				if i > 0 {
					if run, err = prep.RunOnce(run.Seed); err != nil {
						t.Fatal(err)
					}
				}
				if peak := run.Utilization.MaxValue(); peak > 272 {
					t.Errorf("%s/%s: peak utilisation %g exceeds the testbed", set.Approach, label, peak)
				}
				if run.Utilization.MaxValue() == 0 {
					t.Errorf("%s/%s: utilisation never rose", set.Approach, label)
				}
			}
		}
	}
}
