package runner

// This file implements the voluntary shrink requests of §II-D and §VIII:
// the scheduler may ask for processors back, and the application is free
// to decline. The paper lists them as future work; they are implemented
// here behind the same MRunner protocol.

// RequestVoluntaryShrink delivers a voluntary shrink request: the
// application may decline it ("it is merely a guideline", §II-D). It
// accepts during the first half of its execution and declines afterwards,
// when the remaining work no longer amortises the reconfiguration cost. It
// returns the number of processors the application agreed to release; the
// release itself proceeds like a mandatory shrink.
func (r *MRunner) RequestVoluntaryShrink(request int) int {
	if !r.running || request <= 0 || r.exec.Progress() >= 0.5 {
		return 0
	}
	return r.RequestShrink(request)
}
