package store

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func journalPath(s *Store) string { return filepath.Join(s.dir, "journal.ndjson") }

func TestJournalAppendReplay(t *testing.T) {
	s := mkStore(t, Options{Fsync: true})
	j := s.Journal()
	spec := json.RawMessage(`{"workload":{"preset":"Wm"},"runs":2}`)
	recs := []Record{
		{Op: OpSubmitted, ID: "exp-1", Hash: hashN(1), Name: "a", Spec: spec, TimeUnixNano: 10},
		{Op: OpCompleted, ID: "exp-1", Hash: hashN(1), TimeUnixNano: 12},
		{Op: OpFailed, ID: "exp-2", Hash: hashN(2), Error: "boom", TimeUnixNano: 13},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Records() != len(recs) {
		t.Fatalf("Records = %d, want %d", j.Records(), len(recs))
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Schema != SchemaVersion {
			t.Fatalf("record %d schema = %d", i, r.Schema)
		}
		if r.Op != recs[i].Op || r.ID != recs[i].ID || r.Hash != recs[i].Hash || r.Error != recs[i].Error {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
	if string(got[0].Spec) != string(spec) {
		t.Fatalf("spec round trip = %s", got[0].Spec)
	}
}

// TestJournalTruncatedTailRepaired simulates a crash mid-append: the
// file ends in a partial line. Open truncates it to the last complete
// record and appends continue cleanly after it.
func TestJournalTruncatedTailRepaired(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Journal().Append(Record{Op: OpSubmitted, ID: "exp-1", Hash: hashN(1)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The crash: half of the next record made it to disk.
	f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"op":"submi`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logged bytes.Buffer
	log, err := obs.NewLogger(&logged, obs.LogText, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j := s2.Journal()
	if j.Records() != 1 {
		t.Fatalf("Records after repair = %d, want 1", j.Records())
	}
	if !strings.Contains(logged.String(), "incomplete tail") {
		t.Fatalf("tail repair not logged: %v", logged.String())
	}
	// The file is valid NDJSON again: a fresh append lands on its own
	// line, not fused onto the truncated garbage.
	if err := j.Append(Record{Op: OpCompleted, ID: "exp-1", Hash: hashN(1)}); err != nil {
		t.Fatal(err)
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpSubmitted || got[1].Op != OpCompleted {
		t.Fatalf("replay after repair = %+v", got)
	}
}

// TestJournalCorruptAndForeignLinesSkipped: a scribbled middle line and
// a future-schema record are skipped and counted, the rest replays.
func TestJournalCorruptAndForeignLinesSkipped(t *testing.T) {
	dir := t.TempDir()
	lines := []string{
		`{"schema":1,"op":"submitted","id":"exp-1","hash":"` + hashN(1) + `","t":1}`,
		`XXXX garbage XXXX`,
		`{"schema":99,"op":"submitted","id":"exp-9","hash":"` + hashN(9) + `","t":2}`,
		``,
		`{"schema":1,"op":"completed","id":"exp-1","hash":"` + hashN(1) + `","t":3}`,
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpSubmitted || got[1].Op != OpCompleted {
		t.Fatalf("replay = %+v, want the 2 schema-1 records", got)
	}
	if n := metric(t, s, "koalad_store_skipped_total"); n != 2 {
		t.Fatalf("skipped = %g, want 2 (garbage + future schema)", n)
	}
}

func TestJournalCompact(t *testing.T) {
	s := mkStore(t, Options{})
	j := s.Journal()
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Op: OpSubmitted, ID: "exp-1", Hash: hashN(1)}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{{Op: OpSubmitted, ID: "exp-2", Hash: hashN(2), Spec: json.RawMessage(`{}`)}}
	if err := j.Compact(keep); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 1 {
		t.Fatalf("Records after compact = %d, want 1", j.Records())
	}
	// Appends continue onto the compacted file.
	if err := j.Append(Record{Op: OpCompleted, ID: "exp-2", Hash: hashN(2)}); err != nil {
		t.Fatal(err)
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "exp-2" || got[1].Op != OpCompleted {
		t.Fatalf("replay after compact = %+v", got)
	}
	// No temp debris next to the journal.
	des, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".journal-") {
			t.Fatalf("compact left temp file %s", de.Name())
		}
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Journal().Append(Record{Op: OpSubmitted}); err == nil {
		t.Fatal("append on closed journal succeeded")
	}
}
