package sim

import "testing"

// The kernel-level reference model. queue_test.go pins the queue alone
// against refQueue; here whole randomized programs (queued events, tickers
// started and stopped mid-run, Batch joins, reserved streams) run on the
// real engine and on an all-queued, unbatched reference built on
// refQueue, and both must fire the same (time, label) stream.

// fire is one entry of a program's output: the clock and the label of
// what fired. Label -1 marks the end of a RunUntil stretch.
type fire struct {
	t     float64
	label int
}

// kernel is the surface a program drives.
type kernel interface {
	now() float64
	// at queues fn at t and returns its cancel.
	at(t float64, fn func()) (cancel func())
	// batch schedules fn at t as an event of the given kind (0 or 1).
	batch(kind int, t float64, fn func())
	// ticker starts fn every period and returns its stop.
	ticker(period float64, fn func()) (stop func())
	// stream fires fn(i) at times[i] for every i, in order, with seqs
	// taken now; the times do not decrease.
	stream(times []float64, fn func(i int))
	runUntil(h float64)
	run()
}

// engineKernel is the real engine: tickers beside the queue, and batch
// members linked behind one event per batch.
type engineKernel struct {
	e       *Engine
	batches [2]testBatch
	// joins and ticks show the programs exercise batches and tickers;
	// lateJoins counts the joins taken after the seq counter moved.
	joins, lateJoins, ticks int
}

// testBatch is one batch kind, modelled the way GRAM and the LRM do it.
type testBatch struct {
	k    *engineKernel
	b    Batch
	tail *member
}

// member is one batched event; the first member of a batch is its
// event's handler.
type member struct {
	fn   func()
	kind *testBatch
	next *member
}

func (m *member) OnEvent(int) {
	m.kind.b.Close(m.kind.k.e)
	for m != nil {
		next := m.next
		m.next = nil
		m.fn()
		m = next
	}
}

func (k *engineKernel) now() float64 { return k.e.Now() }

func (k *engineKernel) at(t float64, fn func()) func() {
	ev := k.e.AtOp(t, handlerFunc(fn), 0)
	return ev.Cancel
}

func (k *engineKernel) batch(kind int, t float64, fn func()) {
	tb := &k.batches[kind]
	m := &member{fn: fn, kind: tb}
	if tb.b.Join(k.e, t) {
		tb.tail.next = m
		k.joins++
		if tb.b.seq != k.e.seq {
			k.lateJoins++
		}
	} else {
		tb.b.Open(k.e, t, m, 0)
	}
	tb.tail = m
}

func (k *engineKernel) ticker(period float64, fn func()) func() {
	return NewTicker(k.e, period, func() { k.ticks++; fn() }).Stop
}

// reservedStream chains a stream through its Reservation the way
// workload.Submit does: each fire queues the next item first.
type reservedStream struct {
	r     *Reservation
	times []float64
	fn    func(int)
}

func (s *reservedStream) OnEvent(i int) {
	if i+1 < len(s.times) {
		s.r.AtOp(s.times[i+1], s, i+1)
	}
	s.fn(i)
}

func (k *engineKernel) stream(times []float64, fn func(int)) {
	s := &reservedStream{r: k.e.Reserve(len(times)), times: times, fn: fn}
	s.r.AtOp(times[0], s, 0)
}

func (k *engineKernel) runUntil(h float64) { k.e.RunUntil(h) }
func (k *engineKernel) run()               { k.e.Run() }

// refKernel is the reference: every event, tick and batch member is its
// own refQueue entry with its own seq, and a ticker re-queues itself
// after each fire.
type refKernel struct {
	q   refQueue
	t   float64
	seq uint64
}

func (r *refKernel) now() float64 { return r.t }

func (r *refKernel) push(t float64, fn func()) *Event {
	ev := &Event{time: t, seq: r.seq, h: handlerFunc(fn)}
	r.seq++
	r.q.push(ev)
	return ev
}

func (r *refKernel) at(t float64, fn func()) func() {
	ev := r.push(t, fn)
	return func() { r.q.remove(ev) }
}

func (r *refKernel) batch(_ int, t float64, fn func()) { r.push(t, fn) }

func (r *refKernel) ticker(period float64, fn func()) func() {
	var next *Event
	stopped := false
	var tick func()
	tick = func() {
		next = nil
		fn()
		if !stopped {
			next = r.push(r.t+period, tick)
		}
	}
	next = r.push(r.t+period, tick)
	return func() {
		stopped = true
		if next != nil {
			r.q.remove(next)
			next = nil
		}
	}
}

// stream queues the whole stream at once, with consecutive seqs.
func (r *refKernel) stream(times []float64, fn func(int)) {
	for i, t := range times {
		r.push(t, func() { fn(i) })
	}
}

func (r *refKernel) runUntil(h float64) {
	for r.q.len() > 0 {
		ev := r.q.popMin()
		if ev.time > h {
			r.q.push(ev)
			break
		}
		r.t = ev.time
		ev.h.OnEvent(0)
	}
	if r.t < h {
		r.t = h
	}
}

func (r *refKernel) run() {
	for r.q.len() > 0 {
		ev := r.q.popMin()
		r.t = ev.time
		ev.h.OnEvent(0)
	}
}

// program is a randomized event program. Every decision draws from one
// RNG in firing order, so two kernels that fire the same stream make the
// same decisions; the first divergence shows in the output.
type program struct {
	k       kernel
	rng     *RNG
	labels  int
	out     []fire
	live    []labelled // queued events not yet fired or canceled
	tickers []labelled // running tickers, with their stop
	kinds   []byte     // what each label is: see the kind constants
}

// The label kinds a program schedules.
const (
	kindEvent byte = iota
	kindBatch
	kindTicker
	kindStream
)

type labelled struct {
	label int
	undo  func()
}

// programLabels bounds how much a program schedules, so it terminates.
const programLabels = 2500

func (p *program) label(kind byte) int {
	p.labels++
	p.kinds = append(p.kinds, kind)
	return p.labels
}

// kind returns what label l is.
func (p *program) kind(l int) byte { return p.kinds[l-1] }

// delay mixes zero delays (same-instant work), small integers (exact
// ties with tickers and with each other) and a far tail.
func (p *program) delay() float64 {
	switch p.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return float64(p.rng.Intn(4))
	case 2:
		return p.rng.Float64() * 10
	default:
		return 50 + p.rng.Float64()*400
	}
}

func (p *program) fired(l int) {
	p.out = append(p.out, fire{p.k.now(), l})
	if p.labels < programLabels {
		p.act()
	}
}

func (p *program) event() {
	l := p.label(kindEvent)
	cancel := p.k.at(p.k.now()+p.delay(), func() {
		p.live = drop(p.live, l)
		p.fired(l)
	})
	p.live = append(p.live, labelled{l, cancel})
}

// burst schedules members of one batch kind for one instant, sometimes
// with a queued event or a member of the other kind in between. Either
// splits the batch only when it is due at the batch's time: the other
// kind's member always is, a queued event only when its delay ties.
func (p *program) burst() {
	kind := p.rng.Intn(2)
	t := p.k.now() + p.delay()
	for n := 1 + p.rng.Intn(5); n > 0; n-- {
		l := p.label(kindBatch)
		p.k.batch(kind, t, func() { p.fired(l) })
		switch r := p.rng.Float64(); {
		case r < 0.1:
			p.event()
		case r < 0.2:
			l := p.label(kindBatch)
			p.k.batch(1-kind, t, func() { p.fired(l) })
		}
	}
}

// stream reserves a run of items whose gaps are delays: zero gaps give
// same-time items, integer ones tie with tickers and batches. A stream
// reserved mid-run takes its seqs above batches still open, which then
// must not take late members while it is outstanding.
func (p *program) stream() {
	times := make([]float64, 1+p.rng.Intn(6))
	t := p.k.now() + p.delay()
	for i := range times {
		times[i] = t
		t += p.delay()
	}
	first := p.labels + 1
	for range times {
		p.label(kindStream)
	}
	p.k.stream(times, func(i int) { p.fired(first + i) })
}

func (p *program) startTicker() {
	l := p.label(kindTicker)
	var stop func()
	stop = p.k.ticker(float64(1+p.rng.Intn(8)), func() {
		p.fired(l)
		if p.rng.Bool(0.1) { // stop from inside the callback
			stop()
			p.tickers = drop(p.tickers, l)
		}
	})
	p.tickers = append(p.tickers, labelled{l, stop})
}

func (p *program) act() {
	for n := p.rng.Intn(3); n > 0; n-- {
		switch r := p.rng.Float64(); {
		case r < 0.3:
			p.event()
		case r < 0.6:
			p.burst()
		case r < 0.7:
			p.stream()
		case r < 0.8:
			if len(p.tickers) < 6 {
				p.startTicker()
			}
		case r < 0.9:
			if len(p.tickers) > 0 { // may be the ticker now firing
				i := p.rng.Intn(len(p.tickers))
				p.tickers[i].undo()
				p.tickers = append(p.tickers[:i], p.tickers[i+1:]...)
			}
		default:
			if len(p.live) > 0 {
				i := p.rng.Intn(len(p.live))
				p.live[i].undo()
				p.live = append(p.live[:i], p.live[i+1:]...)
			}
		}
	}
}

func drop(s []labelled, l int) []labelled {
	for i := range s {
		if s[i].label == l {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// runProgram drives one seeded program on k in RunUntil stretches, then
// stops every ticker and drains; check runs after every Run/RunUntil.
func runProgram(k kernel, seed uint64, check func()) *program {
	p := &program{k: k, rng: NewRNG(seed)}
	for i := 0; i < 6; i++ {
		p.event()
		p.burst()
	}
	p.stream()
	p.startTicker()
	p.startTicker()
	for h := 0.0; h < 500; h += float64(p.rng.Intn(30)) {
		k.runUntil(h)
		p.out = append(p.out, fire{h, -1})
		check()
	}
	for _, tk := range p.tickers {
		tk.undo()
	}
	p.tickers = nil
	k.run()
	check()
	return p
}

// reservedTies counts the stream fires that share their time with a
// ticker fire and with a batch member.
func (p *program) reservedTies() (withTicker, withBatch int) {
	for i := 0; i < len(p.out); {
		j := i
		var has [4]bool
		for ; j < len(p.out) && p.out[j].t == p.out[i].t; j++ {
			if l := p.out[j].label; l > 0 {
				has[p.kind(l)] = true
			}
		}
		for ; i < j; i++ {
			if l := p.out[i].label; l > 0 && p.kind(l) == kindStream {
				if has[kindTicker] {
					withTicker++
				}
				if has[kindBatch] {
					withBatch++
				}
			}
		}
	}
	return withTicker, withBatch
}

func TestEngineMatchesReferenceModel(t *testing.T) {
	joins, lateJoins, ticks, tickerTies, batchTies := 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		ref := runProgram(&refKernel{}, seed, func() {}).out

		k := &engineKernel{e: New()}
		for i := range k.batches {
			k.batches[i].k = k
		}
		e := k.e
		p := runProgram(k, seed, func() {
			checkHeap(t, &e.q)
			// Every schedule (event or ticker arming) has fired, been
			// canceled, or is still pending.
			if e.Scheduled() != e.Fired()+e.Canceled()+uint64(e.Pending()) {
				t.Fatalf("seed %d at t=%g: scheduled %d != fired %d + canceled %d + pending %d",
					seed, e.Now(), e.Scheduled(), e.Fired(), e.Canceled(), e.Pending())
			}
		})
		got := p.out

		for i := 0; i < len(got) && i < len(ref); i++ {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: fire %d is (t=%g, label %d), reference (t=%g, label %d)",
					seed, i, got[i].t, got[i].label, ref[i].t, ref[i].label)
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d fires, reference %d", seed, len(got), len(ref))
		}
		if k.e.Pending() != 0 {
			t.Fatalf("seed %d: %d pending after the drain", seed, k.e.Pending())
		}
		joins += k.joins
		lateJoins += k.lateJoins
		ticks += k.ticks
		withTicker, withBatch := p.reservedTies()
		tickerTies += withTicker
		batchTies += withBatch
	}
	if joins == 0 || lateJoins == 0 || ticks == 0 {
		t.Fatalf("%d batch joins (%d after the seq counter moved) and %d ticker fires: the programs do not exercise all three",
			joins, lateJoins, ticks)
	}
	if tickerTies == 0 || batchTies == 0 {
		t.Fatalf("%d reserved fires tie with a ticker fire and %d with a batch member: the programs do not exercise both",
			tickerTies, batchTies)
	}
	t.Logf("%d batch joins, %d of them after the seq counter moved; %d ticker fires; %d reserved fires tie with a ticker, %d with a batch",
		joins, lateJoins, ticks, tickerTies, batchTies)
}
