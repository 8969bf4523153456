package sim

// Batch lets a model fire events of one kind that it schedules for the
// same instant as a single event. A GRAM gatekeeper that submits k stubs
// in a loop, say, would otherwise queue k events at one time with
// consecutive seqs.
//
// Two events may share a firing only if nothing can sort between them:
// the second is due at the same time as the first, and nothing queued or
// armed at that time sorts after the first. The second would have taken
// a seq above every seq so far, so only an event or ticker due at the
// batch's time with a seq in between could fire between the two: queued
// ones and armed tickers are checked, later schedules take higher seqs,
// none has fired (the batch's own event has not), and canceled ones never
// fire. A seq reserved above the batch's event and not queued yet might
// be due at the batch's time, so while one is outstanding the batch takes
// no late member. Join tests exactly that against the engine, so no model
// reads seqs itself. When nothing was scheduled since the batch's event,
// its answer is immediate.
//
// The model links the members through a field of its own (the batch's
// event targets the first member), and its handler calls Close before it
// runs the members in order, so whatever a member schedules gets an event
// of its own. A batch's event must never be canceled: a model batches only
// events whose handle it discards.
type Batch struct {
	open bool
	at   float64
	seq  uint64 // the engine's seq counter just after the batch's event
	ev   *Event // the batch's event, queued while the batch is open
}

// Join reports whether an event due at t can ride on the open batch
// instead of being scheduled: the batch's event is due at t and nothing
// queued or armed at t sorts after it.
//
//koalalint:hotpath
func (b *Batch) Join(e *Engine, t float64) bool {
	return b.open && b.at == t && (b.seq == e.seq || e.lastAt(b.ev))
}

// Open schedules h.OnEvent(op) at t as the event of a new batch,
// replacing any batch still open.
//
//koalalint:hotpath
func (b *Batch) Open(e *Engine, t float64, h Handler, op int) {
	b.ev = e.AtOp(t, h, op)
	b.open, b.at, b.seq = true, t, e.seq
}

// Close ends the open batch if it is due now, so later events of its kind
// get an event of their own. A batch's handler calls it before running
// the members: its own batch is then closed for certain, and a batch of
// the same kind due at a later time stays open.
//
//koalalint:hotpath
func (b *Batch) Close(e *Engine) {
	if b.at == e.now {
		b.open = false
	}
}
