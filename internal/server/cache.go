package server

import "sync"

// Cache is koalad's content-addressed result index: runs keyed by the
// canonical fingerprint of their config (experiment.Fingerprint). The
// simulation is deterministic in the fingerprinted fields, so a hash
// hit IS the result — re-submitting an identical config never
// re-simulates. In-flight runs are stored too, which coalesces
// concurrent identical submissions onto one execution.
type Cache struct {
	mu     sync.Mutex
	byHash map[string]*Run
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{byHash: make(map[string]*Run)}
}

// Lookup returns the run owning hash, or nil. The server classifies and
// counts the outcome (hit, coalesce or miss) once it knows the run's
// status.
func (c *Cache) Lookup(hash string) *Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byHash[hash]
}

// Store indexes a run under its hash.
func (c *Cache) Store(run *Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byHash[run.Hash] = run
}

// Evict removes hash if it still maps to run (failed runs leave the
// cache so a re-submission can retry).
func (c *Cache) Evict(run *Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byHash[run.Hash] == run {
		delete(c.byHash, run.Hash)
	}
}

// Len returns the number of indexed runs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byHash)
}
