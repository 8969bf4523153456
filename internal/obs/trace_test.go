package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestTraceSpanLifecycle(t *testing.T) {
	tr := NewTrace("")
	if tr.ID == "" {
		t.Fatal("NewTrace did not assign an ID")
	}
	root := tr.StartSpan("", "run", map[string]string{"run": "exp-1"})
	child := tr.StartSpan(root, "queue", nil)
	tr.EndSpan(child)
	tr.EndSpan(child) // double-end is a no-op
	tr.EndSpan(root)
	tr.Point(root, "retire", nil)

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID {
		t.Fatalf("snapshot trace ID = %q, want %q", snap.TraceID, tr.ID)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]Span{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["run"].Parent != "" {
		t.Errorf("root span has parent %q", byName["run"].Parent)
	}
	if byName["queue"].Parent != byName["run"].ID {
		t.Errorf("queue parent = %q, want root %q", byName["queue"].Parent, byName["run"].ID)
	}
	for _, name := range []string{"run", "queue", "retire"} {
		if byName[name].End.IsZero() {
			t.Errorf("span %s still open in snapshot", name)
		}
	}
	if byName["run"].Attrs["run"] != "exp-1" {
		t.Errorf("root attrs = %v", byName["run"].Attrs)
	}
}

func TestTraceImportAndJSONRoundTrip(t *testing.T) {
	worker := NewTrace("abc123")
	ws := worker.StartSpan("parent-span", "worker.run", map[string]string{"worker": "w1"})
	worker.EndSpan(ws)
	wire, err := json.Marshal(worker.Snapshot().Spans)
	if err != nil {
		t.Fatal(err)
	}

	var spans []Span
	if err := json.Unmarshal(wire, &spans); err != nil {
		t.Fatal(err)
	}
	co := NewTrace("abc123")
	co.Import(spans)
	snap := co.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Parent != "parent-span" || snap.Spans[0].Attrs["worker"] != "w1" {
		t.Fatalf("imported spans = %+v", snap.Spans)
	}
}

func TestSpanContextHTTPPropagation(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/runs/execute", nil)
	if _, ok := ExtractHTTP(req); ok {
		t.Fatal("extracted a span context from a bare request")
	}
	sc := SpanContext{TraceID: "t1", SpanID: "s1"}
	sc.InjectHTTP(req)
	got, ok := ExtractHTTP(req)
	if !ok || got != sc {
		t.Fatalf("ExtractHTTP = %+v, %v; want %+v", got, ok, sc)
	}
}
