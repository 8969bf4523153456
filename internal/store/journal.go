package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Op is a run lifecycle transition recorded in the journal.
type Op string

const (
	// OpSubmitted: a run was admitted; the record carries the original
	// ConfigSpec JSON so recovery can re-create and re-enqueue it.
	OpSubmitted Op = "submitted"
	// OpCompleted: the run's summary is durably in the result store
	// (appended strictly after the store write, so a crash between the
	// two leaves the run in-flight and recovery re-runs it).
	OpCompleted Op = "completed"
	// OpFailed: the run errored or was aborted.
	OpFailed Op = "failed"
)

// Record is one journal line.
type Record struct {
	Schema int    `json:"schema"`
	Op     Op     `json:"op"`
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Name   string `json:"name,omitempty"`
	// Spec is the submitted ConfigSpec JSON (OpSubmitted only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Error is the failure message (OpFailed only).
	Error        string `json:"error,omitempty"`
	TimeUnixNano int64  `json:"t"`
}

// Journal is the append-only NDJSON run log. Appends are serialized;
// replay and compaction share the same lock, so a compact rewrite
// never interleaves with an append.
type Journal struct {
	path    string
	opts    Options
	skipped *obs.Counter // undecodable lines tolerated during replay
	mu      sync.Mutex
	f       *os.File
	lines   int // complete records currently in the file
}

// openJournal opens (creating if absent) the journal at path. If the
// previous process died mid-append the file ends in a partial line;
// that tail is truncated away so the journal stays valid NDJSON and
// new appends do not fuse onto garbage. The records it held were never
// durable, which is exactly the contract of an append-only log. Lines
// a replay skips count on skipped.
func openJournal(path string, opts Options, skipped *obs.Counter) (*Journal, error) {
	j := &Journal{path: path, opts: opts, skipped: skipped}
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// fresh journal
	case err != nil:
		return nil, fmt.Errorf("store: reading journal: %w", err)
	case len(b) > 0 && b[len(b)-1] != '\n':
		cut := bytes.LastIndexByte(b, '\n') + 1
		if err := os.Truncate(path, int64(cut)); err != nil {
			return nil, fmt.Errorf("store: repairing journal tail: %w", err)
		}
		opts.Log.Warn("store: journal had an incomplete tail, truncated", "bytes", len(b)-cut)
		b = b[:cut]
	}
	j.lines = bytes.Count(b, []byte{'\n'})
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Append writes one record. The write is a single buffered line ending
// in '\n'; with Fsync it is forced to stable storage before returning.
func (j *Journal) Append(rec Record) error {
	rec.Schema = SchemaVersion
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshaling journal record: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal is closed")
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	if j.opts.Fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: fsync journal: %w", err)
		}
	}
	j.lines++
	return nil
}

// Records returns the number of complete records currently in the
// journal file (replayable lines, including ones an eventual replay
// would skip as undecodable).
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines
}

// Replay reads every decodable record in append order. Undecodable
// lines and records with an unknown schema version are skipped and
// counted, never fatal: a journal written by a newer or corrupted
// koalad must not prevent this one from starting. A trailing partial
// line (crash mid-append after this journal was opened is impossible,
// but another writer's could exist) is ignored the same way.
func (j *Journal) Replay() ([]Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: replaying journal: %w", err)
	}
	var out []Record
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			j.skipped.Inc()
			j.opts.Log.Warn("store: journal replay skipping partial tail", "bytes", len(b))
			break
		}
		line := b[:nl]
		b = b[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			j.skipped.Inc()
			j.opts.Log.Warn("store: journal replay skipping undecodable line", "err", err)
			continue
		}
		if rec.Schema != SchemaVersion {
			j.skipped.Inc()
			j.opts.Log.Warn("store: journal replay skipping record with unknown schema", "schema", rec.Schema, "want", SchemaVersion)
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// Compact atomically rewrites the journal to exactly keep (typically
// the submitted records of still-in-flight runs): temp file + rename,
// then the append handle is reopened on the new file. Records of runs
// whose results are durably in the store carry no recovery value —
// this is how the journal is truncated instead of growing forever.
func (j *Journal) Compact(keep []Record) error {
	var buf bytes.Buffer
	for _, rec := range keep {
		rec.Schema = SchemaVersion
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: marshaling compacted record: %w", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal is closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("store: journal compact temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing compacted journal: %w", err)
	}
	if j.opts.Fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: fsync compacted journal: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing compacted journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("store: publishing compacted journal: %w", err)
	}
	if j.opts.Fsync {
		syncDir(dir)
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rename landed but we lost the append handle; keep the old
		// one pointing at the unlinked file rather than wedging appends
		// entirely — the next process replays the compacted file.
		return fmt.Errorf("store: reopening compacted journal: %w", err)
	}
	old.Close()
	j.f = f
	j.lines = len(keep)
	return nil
}
