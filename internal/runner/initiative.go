package runner

// This file implements the "initiative of change" extension sketched in
// §II-C and §VIII of the paper: besides the scheduler, the *application*
// may initiate grow requests (useful for irregular parallelism patterns),
// and the scheduler may issue *voluntary* shrink requests that the
// application is free to decline (§II-D). The paper lists both as future
// work; they are implemented here behind the same MRunner protocol.

// AppGrowHandler receives application-initiated grow requests. The
// malleability manager implements it: given the requesting runner's job and
// the amount, it returns how many processors the scheduler is willing to
// hand over (0 declines the request). Application-initiated grows are
// always voluntary for the scheduler (§VIII: how much effort the scheduler
// spends accommodating them is a policy choice).
type AppGrowHandler interface {
	AppGrowRequest(site string, amount int) int
}

// SetAppGrowHandler installs the scheduler-side handler for
// application-initiated grow requests.
func (r *MRunner) SetAppGrowHandler(h AppGrowHandler) { r.appGrow = h }

// AppRequestGrow is called from the application side (the DYNACO decide
// component reacting to the computation needing more processors, §II-C).
// It returns how many processors the application actually obtained: the
// scheduler may grant less than asked, and the application's own
// constraints apply on top.
func (r *MRunner) AppRequestGrow(amount int) int {
	if !r.running || amount <= 0 || r.appGrow == nil {
		return 0
	}
	granted := r.appGrow.AppGrowRequest(r.Site(), amount)
	if granted <= 0 {
		return 0
	}
	if granted > amount {
		granted = amount
	}
	return r.RequestGrow(granted)
}

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
