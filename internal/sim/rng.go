package sim

import "math"

// RNG is a small, fast, deterministic random number generator based on
// SplitMix64. Every experiment owns its RNG seeded explicitly, so runs are
// exactly reproducible across machines — a requirement for the regression
// tests that pin figure shapes.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits, the standard conversion.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire-style bounded generation with rejection to avoid modulo bias.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// ExpFloat64 returns an exponentially distributed value with mean 1, via
// inverse-transform sampling (sufficient quality for workload inter-arrival
// times and fully deterministic).
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Split returns a new RNG whose stream is independent of the receiver's
// future output. It consumes one value from the receiver.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03) }
