// Package sim is a hotpathalloc fixture: a miniature of the real engine's
// marked hot loop.
package sim

// Event mirrors the real event handle.
type Event struct{}

// Engine mirrors the real engine; hotpathalloc keys on the package's final
// path element.
type Engine struct {
	queue []*Event
	now   float64
}

//koalalint:hotpath
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.queue = e.queue[1:]
	_ = ev
	e.now++
	return true
}

//koalalint:hotpath
func (e *Engine) push(ev *Event) {
	//koalalint:alloc amortized: queue capacity is retained across events
	e.queue = append(e.queue, ev)
}

//koalalint:hotpath
func (e *Engine) hotViolations(n int) {
	e.queue = append(e.queue, nil) // want `append allocates in hot-path function hotViolations`
	_ = make([]int, n)             // want `make allocates in hot-path function hotViolations`
	_ = new(Event)                 // want `new allocates in hot-path function hotViolations`
	_ = &Event{}                   // want `composite literal allocates in hot-path function hotViolations`
	_ = func() {}                  // want `function literal allocates in hot-path function hotViolations`
}

// Unmarked functions may allocate freely.
func coldSetup(n int) []*Event {
	out := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &Event{})
	}
	return out
}
