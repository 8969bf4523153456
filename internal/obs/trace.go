package obs

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Trace/span ID propagation headers: a coordinator dispatching a run to
// a worker koalad stamps these on POST /v1/runs/execute so the worker's
// spans parent correctly under the coordinator's dispatch span.
const (
	TraceIDHeader  = "X-Koalad-Trace-Id"
	ParentIDHeader = "X-Koalad-Span-Id"
)

// NewID returns a fresh 8-byte hex span/trace ID.
func NewID() string {
	var b [8]byte
	// crypto/rand never fails on the supported platforms; if it somehow
	// does, the zero ID is still a usable (if colliding) identifier.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// Span is one timed operation within a trace. Start/End are wall-clock
// times: traces are per-process observability and are deliberately
// excluded from determinism comparisons.
type Span struct {
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end,omitzero"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// DurationSeconds returns the span's length, or 0 while it is open.
func (s Span) DurationSeconds() float64 {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start).Seconds()
}

// Trace is one run's span collection. All methods are safe for
// concurrent use; spans are identified by ID, not by pointer, so spans
// imported from another process (a worker's trace event) coexist with
// locally recorded ones.
type Trace struct {
	ID string

	mu    sync.Mutex
	spans []Span
	open  map[string]int // span ID -> index of a not-yet-ended span
}

// NewTrace starts a trace. An empty id draws a fresh one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, open: make(map[string]int)}
}

// StartSpan opens a span under the given parent span ID ("" for a
// root) and returns its ID.
func (t *Trace) StartSpan(parent, name string, attrs map[string]string) string {
	id := NewID()
	t.mu.Lock()
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: time.Now(), Attrs: attrs})
	t.mu.Unlock()
	return id
}

// EndSpan closes the span. Ending an unknown or already-ended span is a
// no-op, so lifecycle paths with several exits can all call it.
func (t *Trace) EndSpan(id string) {
	t.mu.Lock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = time.Now()
		delete(t.open, id)
	}
	t.mu.Unlock()
}

// Point records an instantaneous (zero-length, already-ended) span.
func (t *Trace) Point(parent, name string, attrs map[string]string) {
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: NewID(), Parent: parent, Name: name, Start: now, End: now, Attrs: attrs})
	t.mu.Unlock()
}

// Import merges spans recorded elsewhere (a worker's trace event) into
// this trace. Attr maps are copied so the caller may reuse its slice.
func (t *Trace) Import(spans []Span) {
	t.mu.Lock()
	for _, s := range spans {
		if s.Attrs != nil {
			attrs := make(map[string]string, len(s.Attrs))
			for k, v := range s.Attrs { //koalalint:ordered copied into a map; order-insensitive
				attrs[k] = v
			}
			s.Attrs = attrs
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// TraceJSON is the wire form of a trace: GET /v1/experiments/{id}/trace
// and koalasim -trace both emit it.
type TraceJSON struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// Snapshot deep-copies the trace, spans ordered by start time (ties by
// span ID) so the output is stable for a finished run.
func (t *Trace) Snapshot() TraceJSON {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	return TraceJSON{TraceID: t.ID, Spans: spans}
}

// SpanContext is the propagated identity of a remote parent span.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// InjectHTTP stamps the span context onto an outgoing request.
func (sc SpanContext) InjectHTTP(req *http.Request) {
	if sc.TraceID == "" {
		return
	}
	req.Header.Set(TraceIDHeader, sc.TraceID)
	req.Header.Set(ParentIDHeader, sc.SpanID)
}

// ExtractHTTP reads a propagated span context from an incoming request.
func ExtractHTTP(r *http.Request) (SpanContext, bool) {
	id := r.Header.Get(TraceIDHeader)
	if id == "" {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: id, SpanID: r.Header.Get(ParentIDHeader)}, true
}
