package metrics

// utilFold folds the sampled utilisation into its integral over
// [0, makespan] as the samples arrive, where the makespan is the latest
// job end, so a run that is not plotted keeps no series. Its sum has the
// terms of stats.TimeSeries.Integral(0, makespan) over the same samples,
// added in the same order, so mean is bit-identical to
// MeanOver(0, makespan).
//
// Samples (at t ≥ 0) and job ends arrive in time order, and a job ends
// at the current time. Segment [tᵢ, tᵢ₊₁) of the step series adds
// vᵢ·(tᵢ₊₁ − tᵢ) once a job end covers tᵢ₊₁, and a job end covers every
// segment closed so far: the tail of segments closed since the previous
// job end is committed whole, so pending carries its running sum. If no
// job ends after the tail, Integral clips the tail's first segment at
// the makespan and adds nothing for the later ones, which start no
// earlier than the makespan.
type utilFold struct {
	t, v    float64 // the open sample: v holds from t until the next sample
	sum     float64 // the committed segments' terms
	pending float64 // sum plus the tail's terms, in order
	tail    bool    // whether a segment closed since the last job end
	tailT   float64 // the start and value of the tail's first segment
	tailV   float64
	end     float64 // the latest job end
}

// add takes the sample v at time t. A sample at the open sample's
// instant overwrites it, as stats.TimeSeries.Add does.
func (f *utilFold) add(t, v float64) {
	if t > f.t {
		if !f.tail {
			f.tail, f.tailT, f.tailV = true, f.t, f.v
		}
		f.pending += f.v * (t - f.t)
		f.t = t
	}
	f.v = v
}

// jobEnded commits the tail: a job ended at t, no earlier than the
// open sample.
func (f *utilFold) jobEnded(t float64) {
	f.sum, f.tail = f.pending, false
	f.end = max(f.end, t)
}

// mean returns the time-averaged utilisation over [0, end], or 0 when
// no job has ended.
func (f *utilFold) mean() float64 {
	if f.end <= 0 {
		return 0
	}
	sum, t, v := f.sum, f.t, f.v
	if f.tail {
		t, v = f.tailT, f.tailV
	}
	if f.end > t {
		sum += v * (f.end - t)
	}
	return sum / f.end
}
