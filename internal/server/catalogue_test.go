package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
)

// catalogueRow is one metric family as docs/observability.md lists it.
type catalogueRow struct{ name, typ, label, help string }

func (r catalogueRow) String() string {
	label := ""
	if r.label != "" {
		label = "`" + r.label + "`"
	}
	return fmt.Sprintf("| `%s` | %s | %s | %s |", r.name, r.typ, label, r.help)
}

// docCatalogue reads the rows of the "### Catalogue" section of
// docs/observability.md: every table row whose first cell is a
// backticked family name. The Unit column is free text and ignored.
func docCatalogue(t *testing.T) []catalogueRow {
	t.Helper()
	b, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n### Catalogue\n")
	if !ok {
		t.Fatal("docs/observability.md has no Catalogue section")
	}
	if i := strings.Index(section, "\n### "); i >= 0 {
		section = section[:i]
	}
	var rows []catalogueRow
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `koalad_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			t.Fatalf("catalogue row needs 5 cells (family, type, label, unit, help): %q", line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, catalogueRow{
			name:  strings.Trim(cells[0], "`"),
			typ:   cells[1],
			label: strings.Trim(cells[2], "`"),
			help:  cells[4],
		})
	}
	sortRows(rows)
	return rows
}

func sortRows(rows []catalogueRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
}

// scrapeCatalogue turns a parsed exposition into catalogue rows. A
// family's label is the set of label names its series carry, le aside.
func scrapeCatalogue(fams map[string]*promFamily) []catalogueRow {
	rows := make([]catalogueRow, 0, len(fams))
	for name, f := range fams {
		labels := map[string]bool{}
		for _, s := range f.samples {
			for _, pair := range strings.Split(s.labels, ",") {
				if k, _, ok := strings.Cut(pair, "="); ok && k != "le" {
					labels[k] = true
				}
			}
		}
		names := make([]string, 0, len(labels))
		for k := range labels {
			names = append(names, k)
		}
		sort.Strings(names)
		rows = append(rows, catalogueRow{name: name, typ: f.typ, label: strings.Join(names, ","), help: f.help})
	}
	sortRows(rows)
	return rows
}

// TestMetricsCatalogue pins /metrics to the catalogue in
// docs/observability.md. It wires a worker, a remote backend, a store
// and the server on one registry, as cmd/koalad does, runs one config
// to completion and compares every family's name, TYPE, label name and
// HELP text with the documented rows.
//
// The config's owning shard is a dead worker, so its dispatch retries
// once, opens that worker's breaker and reroutes to the live one; a
// health pass then ejects the dead worker from the ring. That gives
// every per-worker family a series, so its label shows in the scrape.
func TestMetricsCatalogue(t *testing.T) {
	_, workerTS := newTestServer(t, Options{Role: "worker"})
	hash, _ := tinyHashAndSpec(t)
	workers := []string{workerTS.URL, workerTS.URL}
	workers[backend.ShardIndex(hash, 2)] = "http://127.0.0.1:1"

	metrics := obs.NewRegistry()
	rb, err := backend.NewRemote(backend.RemoteOptions{
		Workers:          workers,
		Log:              testLogger(t),
		Metrics:          metrics,
		Retry:            backend.RetryPolicy{MaxRetries: 1, BaseDelay: time.Millisecond},
		BreakerThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	s, ts, st := newStoreServer(t, t.TempDir(), Options{Backend: rb, Metrics: metrics})
	defer closeStoreServer(t, s, ts, st)

	sr, code := postConfig(t, ts, tinyConfig)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	if events := readEvents(t, ts, sr.ID); events[len(events)-1]["type"] != "summary" {
		t.Fatalf("terminal event = %v", events[len(events)-1])
	}
	rb.RefreshHealth(context.Background())

	got := scrapeCatalogue(parseProm(t, string(mustGet(t, ts, "/metrics"))))
	want := docCatalogue(t)
	diff := func(a, b []catalogueRow) []string {
		in := make(map[catalogueRow]bool, len(b))
		for _, r := range b {
			in[r] = true
		}
		var out []string
		for _, r := range a {
			if !in[r] {
				out = append(out, r.String())
			}
		}
		return out
	}
	missing, extra := diff(want, got), diff(got, want)
	if len(missing) > 0 || len(extra) > 0 {
		lines := make([]string, len(got))
		for i, r := range got {
			lines[i] = r.String()
		}
		t.Fatalf("/metrics drifted from docs/observability.md (Unit column omitted below)\n"+
			"documented, not served:\n%s\nserved, not documented:\n%s\nserved catalogue (%d families):\n%s",
			strings.Join(missing, "\n"), strings.Join(extra, "\n"), len(got), strings.Join(lines, "\n"))
	}
}
