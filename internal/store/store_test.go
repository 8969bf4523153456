package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// allEntries reads every stored result, oldest first, skipping
// unreadable, corrupt and incompatible files.
func allEntries(t *testing.T, s *Store) []*Entry {
	t.Helper()
	infos, err := s.scan()
	if err != nil {
		t.Fatal(err)
	}
	return s.readEntries(infos)
}

func mkStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// metric reads one of s's families back by name; an unknown name fails
// the test instead of reading as zero.
func metric(t *testing.T, s *Store, name string) float64 {
	t.Helper()
	v, ok := s.opts.Metrics.Value(name)
	if !ok {
		t.Fatalf("no metric family %s", name)
	}
	return v
}

// hashN returns a syntactically valid fingerprint (64 hex chars).
func hashN(i int) string { return fmt.Sprintf("%064x", i) }

func putN(t *testing.T, s *Store, i int) string {
	t.Helper()
	h := hashN(i)
	err := s.Put(Entry{
		Hash:    h,
		ID:      fmt.Sprintf("exp-%d", i),
		Name:    fmt.Sprintf("run-%d", i),
		Summary: json.RawMessage(fmt.Sprintf(`{"jobs":%d}`, i)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mkStore(t, Options{Fsync: true}) // exercise the fsync path too
	h := putN(t, s, 7)
	e := s.Get(h)
	if e == nil {
		t.Fatal("Get after Put = nil")
	}
	if e.Hash != h || e.ID != "exp-7" || e.Name != "run-7" || string(e.Summary) != `{"jobs":7}` {
		t.Fatalf("entry = %+v", e)
	}
	if e.Schema != SchemaVersion || e.SavedUnixNano == 0 {
		t.Fatalf("envelope not stamped: %+v", e)
	}
	if n, b := metric(t, s, "koalad_store_entries"), metric(t, s, "koalad_store_bytes"); n != 1 || b <= 0 {
		t.Fatalf("entries, bytes = %g, %g", n, b)
	}
}

func TestGetMiss(t *testing.T) {
	s := mkStore(t, Options{})
	if e := s.Get(hashN(1)); e != nil {
		t.Fatalf("Get on empty store = %+v", e)
	}
	// Invalid hashes (wrong length, non-hex, path-shaped) are misses, and
	// Put refuses them outright.
	for _, h := range []string{"", "abc", "../../etc/passwd", hashN(1)[:63] + "Z"} {
		if e := s.Get(h); e != nil {
			t.Fatalf("Get(%q) = %+v", h, e)
		}
		if err := s.Put(Entry{Hash: h}); err == nil {
			t.Fatalf("Put(%q) accepted an invalid hash", h)
		}
	}
}

func TestPutOverwriteKeepsAccounting(t *testing.T) {
	s := mkStore(t, Options{})
	h := putN(t, s, 1)
	if err := s.Put(Entry{Hash: h, ID: "exp-9", Summary: json.RawMessage(`{"jobs":100000}`)}); err != nil {
		t.Fatal(err)
	}
	if n := metric(t, s, "koalad_store_entries"); n != 1 {
		t.Fatalf("entries after overwrite = %g, want 1", n)
	}
	if e := s.Get(h); e == nil || e.ID != "exp-9" {
		t.Fatalf("overwrite not visible: %+v", e)
	}
	// Accounting matches the bytes actually on disk.
	info, err := os.Stat(s.entryPath(h))
	if err != nil {
		t.Fatal(err)
	}
	if b := metric(t, s, "koalad_store_bytes"); b != float64(info.Size()) {
		t.Fatalf("bytes = %g, on disk %d", b, info.Size())
	}
}

// TestIncompatibleEntriesSkippedNotFatal pins the schema-header
// contract: a corrupt file, a future schema version, and a body whose
// hash disagrees with its filename all read as misses, never errors.
func TestIncompatibleEntriesSkippedNotFatal(t *testing.T) {
	s := mkStore(t, Options{})
	good := putN(t, s, 1)

	write := func(hash, body string) {
		t.Helper()
		if err := os.WriteFile(s.entryPath(hash), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(hashN(2), `{"schema":99,"hash":"`+hashN(2)+`","summary":{"jobs":1}}`)
	write(hashN(3), `not json at all`)
	write(hashN(4), `{"schema":1,"hash":"`+hashN(5)+`","summary":{"jobs":1}}`)
	write(hashN(6), `{"schema":1,"hash":"`+hashN(6)+`"}`) // no summary

	for _, h := range []string{hashN(2), hashN(3), hashN(4), hashN(6)} {
		if e := s.Get(h); e != nil {
			t.Fatalf("Get(%s) = %+v, want skipped", h[:8], e)
		}
	}
	entries := allEntries(t, s)
	if len(entries) != 1 || entries[0].Hash != good {
		t.Fatalf("Entries = %d, want only the good one", len(entries))
	}
	if n := metric(t, s, "koalad_store_skipped_total"); n < 4 {
		t.Fatalf("skipped = %g, want >= 4", n)
	}
}

func TestEntriesOldestFirst(t *testing.T) {
	s := mkStore(t, Options{})
	for i := 1; i <= 3; i++ {
		putN(t, s, i)
	}
	// Make mtimes unambiguous: entry 3 oldest, entry 1 newest.
	now := time.Now()
	for i, age := range map[int]time.Duration{3: 3 * time.Hour, 2: 2 * time.Hour, 1: time.Hour} {
		if err := os.Chtimes(s.entryPath(hashN(i)), now, now.Add(-age)); err != nil {
			t.Fatal(err)
		}
	}
	entries := allEntries(t, s)
	var got []string
	for _, e := range entries {
		got = append(got, e.ID)
	}
	if fmt.Sprint(got) != "[exp-3 exp-2 exp-1]" {
		t.Fatalf("order = %v", got)
	}
}

// TestNewestBounded: Newest reads only the most recent n entries and
// reports how many older ones it left on disk.
func TestNewestBounded(t *testing.T) {
	s := mkStore(t, Options{})
	now := time.Now()
	for i := 1; i <= 3; i++ { // entry 1 oldest ... entry 3 newest
		putN(t, s, i)
		if err := os.Chtimes(s.entryPath(hashN(i)), now, now.Add(-time.Duration(4-i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	got, left, err := s.Newest(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || left != 1 || got[0].ID != "exp-2" || got[1].ID != "exp-3" {
		ids := make([]string, 0, len(got))
		for _, e := range got {
			ids = append(ids, e.ID)
		}
		t.Fatalf("Newest(2) = %v (left %d), want [exp-2 exp-3] left 1", ids, left)
	}
	if got, left, err := s.Newest(10); err != nil || len(got) != 3 || left != 0 {
		t.Fatalf("Newest(10) = %d entries, left %d, err %v", len(got), left, err)
	}
}

func TestGCMaxAge(t *testing.T) {
	s := mkStore(t, Options{})
	for i := 1; i <= 3; i++ {
		putN(t, s, i)
	}
	now := time.Now()
	for _, i := range []int{1, 2} {
		if err := os.Chtimes(s.entryPath(hashN(i)), now, now.Add(-2*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.GC(0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 || res.Entries != 1 {
		t.Fatalf("GC = %+v, want 2 removed / 1 left", res)
	}
	if s.Get(hashN(1)) != nil || s.Get(hashN(2)) != nil {
		t.Fatal("expired entries still readable")
	}
	if s.Get(hashN(3)) == nil {
		t.Fatal("fresh entry removed")
	}
	if gc, n := metric(t, s, "koalad_store_gc_removed_total"), metric(t, s, "koalad_store_entries"); gc != 2 || n != 1 {
		t.Fatalf("GC removed, entries after GC = %g, %g", gc, n)
	}
}

func TestGCMaxBytesEvictsOldestFirst(t *testing.T) {
	s := mkStore(t, Options{})
	for i := 1; i <= 4; i++ {
		putN(t, s, i)
	}
	now := time.Now()
	for i := 1; i <= 4; i++ { // entry 1 oldest ... entry 4 newest
		if err := os.Chtimes(s.entryPath(hashN(i)), now, now.Add(-time.Duration(5-i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for roughly two entries.
	info, err := os.Stat(s.entryPath(hashN(4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.GC(2*info.Size()+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 2 {
		t.Fatalf("GC removed %d, want 2 (result %+v)", res.Removed, res)
	}
	if s.Get(hashN(1)) != nil || s.Get(hashN(2)) != nil {
		t.Fatal("oldest entries survived the size bound")
	}
	if s.Get(hashN(3)) == nil || s.Get(hashN(4)) == nil {
		t.Fatal("newest entries evicted")
	}
	if res.Bytes > 2*info.Size()+1 {
		t.Fatalf("bytes after GC = %d, over budget", res.Bytes)
	}
}

func TestGCZeroBoundsIsNoop(t *testing.T) {
	s := mkStore(t, Options{})
	putN(t, s, 1)
	res, err := s.GC(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.Entries != 1 {
		t.Fatalf("unbounded GC = %+v", res)
	}
}

// TestConcurrentReadWhileGC hammers Get from several goroutines while
// GC sweeps everything away: a racing read must degrade to a miss or a
// fully valid entry, never a torn read or a panic (-race covers the
// accounting).
func TestConcurrentReadWhileGC(t *testing.T) {
	s := mkStore(t, Options{})
	const n = 64
	for i := 0; i < n; i++ {
		putN(t, s, i)
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		if err := os.Chtimes(s.entryPath(hashN(i)), now, now.Add(-time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % n {
				select {
				case <-stop:
					return
				default:
				}
				if e := s.Get(hashN(i)); e != nil && string(e.Summary) != fmt.Sprintf(`{"jobs":%d}`, i) {
					panic(fmt.Sprintf("torn read for %s: %s", hashN(i)[:8], e.Summary))
				}
			}
		}()
	}
	if _, err := s.GC(0, time.Minute); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if entries, gc := metric(t, s, "koalad_store_entries"), metric(t, s, "koalad_store_gc_removed_total"); entries != 0 || gc != n {
		t.Fatalf("entries, GC removed after full GC = %g, %g", entries, gc)
	}
	for i := 0; i < n; i++ {
		if s.Get(hashN(i)) != nil {
			t.Fatalf("entry %d survived full GC", i)
		}
	}
}

// TestForeignFilesInvisible: only fingerprint-named files are store
// entries; anything else in the results directory is not counted,
// served, or garbage-collected (it is not ours to delete).
func TestForeignFilesInvisible(t *testing.T) {
	s := mkStore(t, Options{})
	putN(t, s, 1)
	foreign := filepath.Join(s.dir, "results", "notes.json")
	if err := os.WriteFile(foreign, []byte(`{"schema":1,"hash":"ab"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := metric(t, s, "koalad_store_entries"); n != 1 {
		t.Fatalf("entries = %g, want foreign file uncounted", n)
	}
	entries := allEntries(t, s)
	if len(entries) != 1 || entries[0].Hash != hashN(1) {
		t.Fatalf("Entries = %+v", entries)
	}
	if _, err := s.GC(1, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("GC deleted a file it does not own")
	}
}

// TestOpenSweepsTempDebris: temp files orphaned by a crash between
// CreateTemp and Rename are removed on the next Open, so they cannot
// leak disk outside the GC bounds.
func TestOpenSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putN(t, s, 1)
	s.Close()
	debris := []string{
		filepath.Join(dir, "results", ".tmp-12345"),
		filepath.Join(dir, ".journal-67890"),
	}
	for _, p := range debris {
		if err := os.WriteFile(p, []byte("half a write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, p := range debris {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("debris %s survived Open", p)
		}
	}
	if s2.Get(hashN(1)) == nil {
		t.Fatal("real entry swept")
	}
}

// TestReopenRecountsAccounting pins that Open's scan restores the
// entry/byte accounting a previous process accumulated.
func TestReopenRecountsAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	putN(t, s, 1)
	putN(t, s, 2)
	wantEntries, wantBytes := metric(t, s, "koalad_store_entries"), metric(t, s, "koalad_store_bytes")
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, b := metric(t, s2, "koalad_store_entries"), metric(t, s2, "koalad_store_bytes"); n != wantEntries || b != wantBytes {
		t.Fatalf("reopened entries, bytes = %g, %g, want %g, %g", n, b, wantEntries, wantBytes)
	}
}

// TestPutLeavesNoTempDebris pins the atomic-write protocol: after a
// successful Put only the final entry file exists.
func TestPutLeavesNoTempDebris(t *testing.T) {
	s := mkStore(t, Options{})
	putN(t, s, 1)
	des, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != hashN(1)+resultExt {
		names := make([]string, 0, len(des))
		for _, de := range des {
			names = append(names, de.Name())
		}
		t.Fatalf("results dir = %v", names)
	}
}
