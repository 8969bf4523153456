// Package store is koalad's durable state: a content-addressed on-disk
// result store plus an append-only run journal, which together let the
// daemon survive restarts without losing completed sweeps or in-flight
// submissions.
//
// The result store holds one file per completed experiment, keyed by
// the config's canonical fingerprint (experiment.Fingerprint) — the
// same key as the in-memory result cache, so a disk entry IS the
// result and an identical re-submission after a restart never
// re-simulates. Writes are atomic (temp file + rename in the same
// directory, optional fsync), and every entry carries a schema version
// so an incompatible or corrupt file is skipped, never crashed on.
//
// The journal (journal.go) records run lifecycle transitions as NDJSON;
// replaying it at startup recovers runs that were in flight when the
// process died. Once a run's result is durably in the store its journal
// records are dead weight, which compaction truncates.
//
// Layout under the data directory:
//
//	results/<fingerprint>.json   one entry per completed experiment
//	journal.ndjson               append-only run journal
package store

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SchemaVersion stamps every store entry and journal record. Bump it on
// any incompatible change to the entry or record shape: readers skip
// versions they do not understand, so old state degrades to a cache
// miss instead of a crash or a silently wrong result.
const SchemaVersion = 1

// resultExt is the store entry file suffix; anything else in the
// results directory (temp files mid-rename, stray editors) is ignored.
const resultExt = ".json"

// Options tune a store.
type Options struct {
	// Fsync forces entry files (and the directory on rename) and journal
	// appends to stable storage. Off, durability is bounded by the OS
	// page cache — state survives a process kill but not a power loss.
	Fsync bool
	// Log receives one structured record per skipped/repaired artifact
	// (optional; nil discards).
	Log *slog.Logger
	// Metrics is the registry the store's families (size, skipped
	// artifacts, GC, journal records and the I/O latency histograms)
	// land on; share the server's so /metrics scrapes them. Nil creates
	// a private registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Log == nil {
		o.Log = obs.NopLogger()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Entry is one stored result: the envelope around a completed
// experiment's summary JSON. The summary stays raw so the store does
// not depend on the experiment package's types — the server decodes it
// (strictly) and treats a failure as a miss.
type Entry struct {
	Schema int    `json:"schema"`
	Hash   string `json:"hash"`
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	// SavedUnixNano is the write time; GC's age bound reads the file
	// mtime, this field is informational.
	SavedUnixNano int64           `json:"saved_unix_nano"`
	Summary       json.RawMessage `json:"summary"`
}

// Store is the on-disk result store plus its journal.
type Store struct {
	dir     string
	results string
	opts    Options
	journal *Journal

	readHist  *obs.Histogram
	writeHist *obs.Histogram
	gcHist    *obs.Histogram
	skipped   *obs.Counter // corrupt or incompatible artifacts, shared with the journal
	gcRemoved *obs.Counter
	gcBytes   *obs.Counter

	mu      sync.Mutex // guards writes, GC and the size accounting
	entries int
	bytes   int64
}

// Open creates (if needed) and opens the store rooted at dir. The
// journal's incomplete tail, if the last process died mid-append, is
// repaired (truncated to the last complete line) so new appends stay
// well-formed.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	results := filepath.Join(dir, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", results, err)
	}
	m := opts.Metrics
	skipped := m.Counter("koalad_store_skipped_total", "Corrupt or incompatible on-disk artifacts skipped.")
	j, err := openJournal(filepath.Join(dir, "journal.ndjson"), opts, skipped)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, results: results, opts: opts, journal: j, skipped: skipped}
	m.GaugeFunc("koalad_store_entries", "Results in the on-disk store.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.entries)
	})
	m.GaugeFunc("koalad_store_bytes", "Bytes of results in the on-disk store.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	s.gcRemoved = m.Counter("koalad_store_gc_removed_total", "Store entries removed by GC.")
	s.gcBytes = m.Counter("koalad_store_gc_bytes_total", "Bytes reclaimed by GC.")
	m.GaugeFunc("koalad_journal_records", "Records currently in the run journal.",
		func() float64 { return float64(j.Records()) })
	b := obs.DefaultLatencyBuckets()
	s.readHist = m.Histogram("koalad_store_read_seconds", "Store entry read+decode latency.", b)
	s.writeHist = m.Histogram("koalad_store_write_seconds", "Store entry marshal+write+rename latency.", b)
	s.gcHist = m.Histogram("koalad_store_gc_pause_seconds", "Store GC sweep duration (the store lock is held throughout).", b)
	// A crash between CreateTemp and Rename (Put or Compact) orphans a
	// temp file invisible to GC and the size accounting; sweep the
	// debris of previous lives before counting. The directory is owned
	// by one daemon at a time, so nothing live matches these prefixes.
	sweepTemp(results, ".tmp-")
	sweepTemp(dir, ".journal-")
	// Size accounting starts from a scan; Put and GC keep it current.
	infos, err := s.scan()
	if err != nil {
		j.Close()
		return nil, err
	}
	for _, fi := range infos {
		s.entries++
		s.bytes += fi.size
	}
	return s, nil
}

// sweepTemp removes leftover temp files (best-effort).
func sweepTemp(dir, prefix string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if !de.IsDir() && strings.HasPrefix(de.Name(), prefix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Journal returns the store's run journal.
func (s *Store) Journal() *Journal { return s.journal }

// Close releases the journal's file handle. Entry reads and writes are
// per-call and need no teardown.
func (s *Store) Close() error { return s.journal.Close() }

func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.results, hash+resultExt)
}

// validHash keeps fingerprints (and therefore file names) to the hex
// form experiment.Fingerprint emits — nothing path-traversal-shaped
// gets near a filename.
func validHash(hash string) bool {
	if len(hash) != 64 {
		return false
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put durably stores an entry under its hash: marshal to a temp file in
// the results directory, optionally fsync, rename over the final name.
// A crash at any point leaves either the old entry or the new one,
// never a torn file.
func (s *Store) Put(e Entry) error {
	if !validHash(e.Hash) {
		return fmt.Errorf("store: invalid hash %q", e.Hash)
	}
	start := time.Now()
	defer func() { s.writeHist.Observe(time.Since(start).Seconds()) }()
	e.Schema = SchemaVersion
	if e.SavedUnixNano == 0 {
		e.SavedUnixNano = time.Now().UnixNano()
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: marshaling entry %s: %w", e.Hash, err)
	}
	b = append(b, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.entryPath(e.Hash)
	var oldSize int64
	existed := false
	if info, err := os.Stat(path); err == nil {
		oldSize, existed = info.Size(), true
	}
	tmp, err := os.CreateTemp(s.results, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", e.Hash, err)
	}
	if s.opts.Fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: fsync %s: %w", e.Hash, err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing temp for %s: %w", e.Hash, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publishing %s: %w", e.Hash, err)
	}
	if s.opts.Fsync {
		syncDir(s.results)
	}
	if existed {
		s.bytes += int64(len(b)) - oldSize
	} else {
		s.entries++
		s.bytes += int64(len(b))
	}
	return nil
}

// syncDir fsyncs a directory so a rename is durable; best-effort (some
// filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Get returns the entry stored under hash, or nil when there is none —
// including when the file exists but is corrupt or carries an unknown
// schema version (skipped and counted, never an error: on-disk state
// must not be able to take the daemon down).
func (s *Store) Get(hash string) *Entry {
	if !validHash(hash) {
		return nil
	}
	start := time.Now()
	defer func() { s.readHist.Observe(time.Since(start).Seconds()) }()
	b, err := os.ReadFile(s.entryPath(hash))
	if err != nil {
		return nil // miss (or racing GC removal — same thing)
	}
	return s.decodeEntry(hash, b)
}

func (s *Store) decodeEntry(hash string, b []byte) *Entry {
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		s.skip("skipping corrupt entry", "hash", hash, "err", err)
		return nil
	}
	if e.Schema != SchemaVersion {
		s.skip("skipping entry with unknown schema", "hash", hash, "schema", e.Schema, "want", SchemaVersion)
		return nil
	}
	if e.Hash != hash {
		s.skip("skipping entry whose body claims another hash", "hash", hash, "claimed", e.Hash)
		return nil
	}
	if len(e.Summary) == 0 {
		s.skip("skipping entry with empty summary", "hash", hash)
		return nil
	}
	return &e
}

func (s *Store) skip(msg string, attrs ...any) {
	s.skipped.Inc()
	s.opts.Log.Warn("store: "+msg, attrs...)
}

// Entries scans every stored result, skipping unreadable, corrupt and
// incompatible files. Order is by file mtime, oldest first (the order
// GC would evict in), with the hash as tie-break for determinism.
func (s *Store) Entries() ([]*Entry, error) {
	infos, err := s.scan()
	if err != nil {
		return nil, err
	}
	return s.readEntries(infos), nil
}

// Newest reads only the n most recently written results (oldest first
// among them) plus how many older entries were left unread — what a
// recovery bounded by a retention limit wants, without O(store size)
// reads and decodes.
func (s *Store) Newest(n int) ([]*Entry, int, error) {
	infos, err := s.scan()
	if err != nil {
		return nil, 0, err
	}
	left := 0
	if skip := len(infos) - n; n >= 0 && skip > 0 {
		infos = infos[skip:]
		left = skip
	}
	return s.readEntries(infos), left, nil
}

func (s *Store) readEntries(infos []fileInfo) []*Entry {
	out := make([]*Entry, 0, len(infos))
	for _, fi := range infos {
		b, err := os.ReadFile(filepath.Join(s.results, fi.name))
		if err != nil {
			continue // raced a concurrent GC
		}
		if e := s.decodeEntry(strings.TrimSuffix(fi.name, resultExt), b); e != nil {
			out = append(out, e)
		}
	}
	return out
}

type fileInfo struct {
	name  string
	size  int64
	mtime time.Time
}

func (s *Store) scan() ([]fileInfo, error) {
	des, err := os.ReadDir(s.results)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", s.results, err)
	}
	infos := make([]fileInfo, 0, len(des))
	for _, de := range des {
		// Only files named by a valid fingerprint are store entries;
		// anything else (a stray editor file, a hand-dropped artifact) is
		// not ours to count, serve or GC.
		if de.IsDir() || !strings.HasSuffix(de.Name(), resultExt) ||
			!validHash(strings.TrimSuffix(de.Name(), resultExt)) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		infos = append(infos, fileInfo{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(infos, func(i, j int) bool {
		if !infos[i].mtime.Equal(infos[j].mtime) {
			return infos[i].mtime.Before(infos[j].mtime)
		}
		return infos[i].name < infos[j].name
	})
	return infos, nil
}

// GCResult reports one garbage-collection sweep.
type GCResult struct {
	Removed      int   // entries deleted this sweep
	RemovedBytes int64 // bytes reclaimed this sweep
	Entries      int   // entries remaining
	Bytes        int64 // bytes remaining
}

// GC bounds the store by age and size: entries older than maxAge are
// removed, then the oldest entries go until the total is under
// maxBytes. Zero disables the respective bound. Removal is safe
// against concurrent readers — a Get racing a removal degrades to a
// miss (the config re-simulates on its next POST).
func (s *Store) GC(maxBytes int64, maxAge time.Duration) (GCResult, error) {
	start := time.Now()
	defer func() { s.gcHist.Observe(time.Since(start).Seconds()) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	infos, err := s.scan()
	if err != nil {
		return GCResult{}, err
	}
	var total int64
	for _, fi := range infos {
		total += fi.size
	}
	now := time.Now()
	var res GCResult
	remove := func(fi fileInfo) bool {
		if err := os.Remove(filepath.Join(s.results, fi.name)); err != nil {
			return false
		}
		res.Removed++
		res.RemovedBytes += fi.size
		total -= fi.size
		return true
	}
	live := make([]fileInfo, 0, len(infos))
	for _, fi := range infos { // oldest first, so the size pass evicts oldest
		expired := maxAge > 0 && now.Sub(fi.mtime) > maxAge
		if expired && remove(fi) {
			continue
		}
		live = append(live, fi)
	}
	if maxBytes > 0 {
		kept := live[:0]
		for i, fi := range live {
			if total <= maxBytes {
				kept = append(kept, live[i:]...)
				break
			}
			if !remove(fi) {
				kept = append(kept, fi)
			}
		}
		live = kept
	}
	s.entries, s.bytes = len(live), 0
	for _, fi := range live {
		s.bytes += fi.size
	}
	s.gcRemoved.Add(int64(res.Removed))
	s.gcBytes.Add(res.RemovedBytes)
	res.Entries, res.Bytes = s.entries, s.bytes
	return res, nil
}
