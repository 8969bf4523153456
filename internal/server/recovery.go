package server

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the durable half of the daemon: write-through of
// completed summaries to the result store, journaling of run lifecycle
// transitions, startup recovery (replay the journal, re-index stored
// results, re-enqueue runs that were in flight when the process died)
// and journal compaction. Everything here is a no-op when the server
// has no store — koalad without -data-dir behaves exactly as before.

// RecoveryStats reports what Recover rebuilt.
type RecoveryStats struct {
	// Restored results were re-indexed from the store into the
	// registry/cache (served on re-POST without re-simulation).
	Restored int
	// Reenqueued runs were in flight at the crash and are executing
	// again.
	Reenqueued int
	// Resolved runs looked in-flight in the journal but their result
	// was already durable in the store (the crash hit between the store
	// write and the journal's completed append) — recovered as done.
	Resolved int
	// Dropped journal runs could not be recovered (no spec recorded, or
	// the spec no longer validates).
	Dropped int
}

// shortHash abbreviates a fingerprint for log lines without assuming
// its length — journal records are external input and may carry
// anything.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func (r RecoveryStats) String() string {
	return fmt.Sprintf("%d results restored, %d runs re-enqueued, %d resolved from store, %d dropped",
		r.Restored, r.Reenqueued, r.Resolved, r.Dropped)
}

// Recover rebuilds the daemon's state from the data directory: every
// decodable store entry becomes a done run in the registry and cache,
// and every journaled run without a durable outcome is re-enqueued.
// Call it once, after New and before serving traffic.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if s.store == nil {
		return rs, nil
	}
	// Only the newest MaxRetained results are worth materializing
	// (retire would immediately evict the rest); older results stay on
	// disk unread and are adopted lazily on POST, so startup does not
	// scale with the store's history.
	entries, left, err := s.store.Newest(s.opts.MaxRetained)
	if err != nil {
		return rs, err
	}
	if left > 0 {
		s.log.Info("koalad: recovery leaving older results on disk", "left", left, "retention", s.opts.MaxRetained)
	}
	for _, e := range entries {
		if run := s.adoptEntry(e); run != nil {
			rs.Restored++
		}
	}

	recs, err := s.store.Journal().Replay()
	if err != nil {
		return rs, err
	}
	// Fold the journal into the last known state per run ID, preserving
	// submission order for re-enqueueing.
	type jrun struct {
		submitted store.Record
		terminal  bool
	}
	byID := make(map[string]*jrun)
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case store.OpSubmitted:
			if byID[rec.ID] == nil {
				byID[rec.ID] = &jrun{submitted: rec}
				order = append(order, rec.ID)
			}
		case store.OpCompleted, store.OpFailed:
			if jr := byID[rec.ID]; jr != nil {
				jr.terminal = true
			}
			// A terminal record without a submitted one means compaction
			// raced that run's completion; there is nothing to recover.
		}
	}

	var keep []store.Record // the compacted journal: still-in-flight runs only
	var revived []*Run
	for _, id := range order {
		jr := byID[id]
		if jr.terminal {
			continue
		}
		rec := jr.submitted
		// The result may be durable even though the journal never saw the
		// completed append — the crash hit between the store write and
		// the journal write. The store entry wins; nothing to re-run.
		// Check the disk too, not just the cache: the entry may be older
		// than the retention bound and so not materialized above.
		if s.cache.Lookup(rec.Hash) != nil || s.store.Get(rec.Hash) != nil {
			rs.Resolved++
			continue
		}
		run, err := s.reenqueue(rec)
		if err != nil {
			s.log.Warn("koalad: recovery dropping run", "run", rec.ID, "hash", shortHash(rec.Hash), "err", err)
			rs.Dropped++
			continue
		}
		revived = append(revived, run)
		keep = append(keep, store.Record{
			Op: store.OpSubmitted, ID: run.ID, Hash: run.Hash, Name: run.Name,
			Spec: run.specJSON, TimeUnixNano: rec.TimeUnixNano,
		})
		s.storeReplayed.Inc()
		rs.Reenqueued++
	}
	// Truncate the journal down to the surviving runs: everything else
	// is durably reflected in the store (or terminal) and carries no
	// recovery value. This must happen before the revived runs start —
	// a fast run's started/terminal appends would be erased by a
	// compaction built from the pre-spawn snapshot.
	if err := s.store.Journal().Compact(keep); err != nil {
		s.log.Warn("koalad: recovery journal compaction failed", "err", err)
	} else {
		s.compactions.Inc()
	}
	for _, run := range revived {
		go s.execute(run)
	}
	return rs, nil
}

// reenqueue rebuilds an in-flight journaled run under its original ID
// so pre-crash clients can still poll it. The caller starts execution
// (after the journal is compacted).
func (s *Server) reenqueue(rec store.Record) (*Run, error) {
	if len(rec.Spec) == 0 {
		return nil, fmt.Errorf("no config spec journaled")
	}
	spec, err := experiment.DecodeConfigSpec(bytes.NewReader(rec.Spec))
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	if spec.Parallelism == 0 {
		cfg.Parallelism = s.opts.Parallelism
	}
	s.admitMu.Lock()
	run := s.registry.Adopt(rec.ID, rec.Hash, cfg, rec.Spec, SourceLive)
	run.beginTrace(obs.SpanContext{})
	s.cache.Store(run)
	s.runsAdmitted.Inc()
	s.queued.Add(1)
	s.wg.Add(1)
	s.admitMu.Unlock()
	run.append(acceptedEvent{Type: "accepted", ID: run.ID, Name: run.Name, Hash: run.Hash, Runs: cfg.Runs}, "")
	s.log.Info("koalad: run re-enqueued after restart", "run", run.ID, "hash", shortHash(run.Hash))
	return run, nil
}

// adoptStored loads the result stored under hash into the registry and
// cache as a done run, or returns nil when the store has no usable
// entry. Called with admitMu held, like every registry/cache mutation
// on the submission path.
func (s *Server) adoptStored(hash string) *Run {
	e := s.store.Get(hash)
	if e == nil {
		return nil
	}
	return s.adoptEntry(e)
}

// adoptEntry materializes one store entry as a terminal run: registry,
// synthesized event log, cache, retention accounting. Returns nil (and
// logs) when the summary does not decode — an incompatible entry is a
// miss, never an error.
func (s *Server) adoptEntry(e *store.Entry) *Run {
	sum, err := experiment.DecodeSummary(e.Summary)
	if err != nil {
		s.log.Warn("koalad: ignoring undecodable store entry", "hash", shortHash(e.Hash), "err", err)
		return nil
	}
	run := s.registry.Adopt(e.ID, e.Hash, experiment.Config{Name: e.Name}, nil, SourceStore)
	run.restoreDone(sum)
	s.cache.Store(run)
	s.retire(run) // restored runs count against MaxRetained like any terminal run
	s.storeRestored.Inc()
	return run
}

// persistResult writes a completed summary through to the store and
// reports whether it landed; only then may the journal record the run
// completed, so a crash between the two re-runs the experiment rather
// than losing its result. Persistence failures are logged, never fatal:
// the in-memory result still serves.
func (s *Server) persistResult(run *Run, sum experiment.StreamSummary) bool {
	if s.store == nil {
		return false
	}
	b, err := experiment.EncodeSummary(sum)
	if err != nil {
		s.log.Warn("koalad: summary not encodable, result stays memory-only", "run", run.ID, "err", err)
		return false
	}
	if err := s.store.Put(store.Entry{Hash: run.Hash, ID: run.ID, Name: run.Name, Summary: b}); err != nil {
		s.log.Warn("koalad: result not persisted", "run", run.ID, "err", err)
		return false
	}
	return true
}

// journalAppend stamps and appends a record; journal trouble is logged
// and absorbed (durability degrades, the daemon keeps serving). Every
// terminal append is a compaction opportunity — completed AND failed,
// so a daemon whose runs keep failing still bounds its journal.
func (s *Server) journalAppend(rec store.Record) {
	if s.store == nil {
		return
	}
	rec.TimeUnixNano = time.Now().UnixNano()
	if err := s.store.Journal().Append(rec); err != nil {
		s.log.Warn("koalad: journal append failed", "err", err)
	}
	if rec.Op == store.OpCompleted || rec.Op == store.OpFailed {
		s.maybeCompactJournal()
	}
}

// maybeCompactJournal truncates the journal once it has accumulated
// JournalCompactEvery records: only in-flight runs' submitted records
// survive — completed and failed runs are durably reflected in the
// store (or deliberately forgotten) and replay to nothing. The
// registry snapshot and the rewrite happen under admitMu so no
// admission can journal a submitted record between the two and have
// compaction erase it (admissions append only after releasing
// admitMu, so their records land after the rewrite).
func (s *Server) maybeCompactJournal() {
	j := s.store.Journal()
	if j.Records() < s.opts.JournalCompactEvery {
		return
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if j.Records() < s.opts.JournalCompactEvery { // racing compactions
		return
	}
	if s.closed.Load() {
		// Draining: shutdown-aborted runs are StatusFailed in memory but
		// deliberately unjournaled so the next start re-enqueues them; a
		// compaction now would drop their submitted records and lose
		// them. The next life compacts instead.
		return
	}
	var keep []store.Record
	now := time.Now().UnixNano()
	for _, run := range s.registry.All() {
		if st := run.Status(); st != StatusQueued && st != StatusRunning {
			continue
		}
		if len(run.specJSON) == 0 {
			continue
		}
		keep = append(keep, store.Record{
			Op: store.OpSubmitted, ID: run.ID, Hash: run.Hash, Name: run.Name,
			Spec: run.specJSON, TimeUnixNano: now,
		})
	}
	if err := j.Compact(keep); err != nil {
		s.log.Warn("koalad: journal compaction failed", "err", err)
		return
	}
	s.compactions.Inc()
	s.log.Info("koalad: journal compacted", "in_flight", len(keep))
}
