//go:build !race

package experiment

// raceEnabled reports whether the race detector is on; under it,
// sync.Pool drops items on purpose, so pooled reuse is not measurable.
const raceEnabled = false
