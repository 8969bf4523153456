package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"
)

// arrival is one request of an open-loop class: when it is due, relative
// to the start of the measured window, and a seeded draw the class maps
// onto the config it sends.
type arrival struct {
	Due  time.Duration
	Pick uint64
}

// splitmix64 is a tiny seedable PRNG whose output depends only on its
// seed, so schedules are reproducible byte for byte.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform draw in [0, 1).
func (s *splitmix64) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

func streamSeed(seed uint64, class string) splitmix64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	return splitmix64(seed ^ h.Sum64())
}

// poissonSchedule returns the arrivals of one class over window at rate
// per second: a Poisson process conditioned on its mean count
// n = rate·window. The n+1 exponential gaps are rescaled to span the
// window, which yields the order statistics of n uniform points — the
// shape of Poisson arrivals, with a request count that does not vary
// from seed to seed.
func poissonSchedule(seed uint64, class string, rate float64, window time.Duration) []arrival {
	n := int(math.Round(rate * window.Seconds()))
	if n <= 0 {
		return nil
	}
	rng := streamSeed(seed, class)
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - rng.unit())
		total += gaps[i]
	}
	out := make([]arrival, n)
	at := 0.0
	for i := 0; i < n; i++ {
		at += gaps[i]
		out[i] = arrival{
			Due:  time.Duration(at / total * float64(window)),
			Pick: rng.next(),
		}
	}
	return out
}

// encodeSchedule is the canonical byte form of a schedule, used to show
// that a seed reproduces it exactly.
func encodeSchedule(s []arrival) []byte {
	b := make([]byte, 0, 16*len(s))
	for _, a := range s {
		b = binary.BigEndian.AppendUint64(b, uint64(a.Due))
		b = binary.BigEndian.AppendUint64(b, a.Pick)
	}
	return b
}
