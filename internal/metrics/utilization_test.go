package metrics

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// TestUtilFoldMatchesMeanOver feeds the fold and a stats.TimeSeries the
// same random, time-ordered samples and job ends, and requires the
// folded mean to equal the series' MeanOver(0, last job end) bit for
// bit. Fractional times and values make every rounding step count, so
// a term added out of Integral's order, or clipped differently, shows.
func TestUtilFoldMatchesMeanOver(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 4))
	// Cases the generator must have produced by the end.
	var overwrites, endsAtSample, samplesAfterLastEnd, noJobEnded int
	for trial := 0; trial < 3000; trial++ {
		now := 0.0
		if rng.IntN(4) == 0 {
			now = rng.Float64() * 50
		}
		v := rng.Float64() * 300
		f := utilFold{t: now, v: v}
		ts := stats.NewTimeSeries()
		ts.Add(now, v)
		lastSample, lastEnd := now, -1.0
		for step := rng.IntN(300); step > 0; step-- {
			switch k := rng.IntN(10); {
			case k < 4: // time passes
				now += rng.Float64() * 37
			case k < 8: // the sampler fires
				v = rng.Float64() * 300
				if now == lastSample {
					overwrites++
				}
				f.add(now, v)
				ts.Add(now, v)
				lastSample = now
			default: // a job ends
				if now == lastSample {
					endsAtSample++
				}
				f.jobEnded(now)
				lastEnd = now
			}
		}
		switch {
		case lastEnd < 0:
			noJobEnded++
		case lastSample > lastEnd:
			samplesAfterLastEnd++
		}
		want := 0.0
		if f.end > 0 {
			want = ts.MeanOver(0, f.end)
		}
		if got := f.mean(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: folded mean %v, MeanOver(0, %v) %v", trial, got, f.end, want)
		}
	}
	if overwrites == 0 || endsAtSample == 0 || samplesAfterLastEnd == 0 || noJobEnded == 0 {
		t.Fatalf("cases not covered: %d overwrites, %d job ends at a sample, %d trials with samples after the last job end, %d with no job end",
			overwrites, endsAtSample, samplesAfterLastEnd, noJobEnded)
	}
	t.Logf("%d overwrites, %d job ends at a sample, %d trials with samples after the last job end, %d with no job end",
		overwrites, endsAtSample, samplesAfterLastEnd, noJobEnded)
}
