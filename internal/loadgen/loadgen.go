// Package loadgen is koalaload's simulated-client fleet: N
// goroutine-cheap clients with deterministic per-client PRNGs driving
// mixed behaviors against a live koalad, in the style of
// kolide/launcher's simulator. The fleet is the user-side half of the
// observability plane — where internal/obs measures what the server
// does, loadgen measures what a client experiences: submit-to-first-
// event and submit-to-terminal latency per behavior class, events/sec
// fanout, error and 429 rates, and cache hit/coalesce rates scraped
// from /metrics before and after the run.
//
// Determinism: every client decision (which hot config to re-POST,
// backoff jitter, disconnect depth) comes from a per-client PRNG
// seeded from (fleet seed, client index), so a fleet run issues a
// reproducible request schedule. The measured latencies are wall
// clock and of course vary run to run — the schedule is deterministic,
// the weather is not.
package loadgen

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// Class is a client behavior class.
type Class int

const (
	// CacheHot clients re-POST configs from a small pre-warmed pool:
	// every submission is a cache hit and the stream replays instantly.
	// They measure the server's request-path latency floor.
	CacheHot Class = iota
	// ColdSweep clients submit configs nobody has seen before: every
	// submission misses the cache and simulates. They measure admission,
	// queueing and end-to-end simulation latency, and they are the ones
	// that hit 429 backpressure when the queue fills.
	ColdSweep
	// Follower clients submit from a shared per-round pool so many of
	// them coalesce onto one in-flight run, then hold the NDJSON stream
	// open to the terminal event. They measure event fanout.
	Follower
	// Disconnector clients attach to the same in-flight runs the
	// followers create and hang up mid-stream after a PRNG-chosen number
	// of events, exercising the server's disconnect accounting and
	// follower cleanup under churn.
	Disconnector

	numClasses
)

// String names the class as it appears in reports and metric keys.
func (c Class) String() string {
	switch c {
	case CacheHot:
		return "cachehot"
	case ColdSweep:
		return "coldsweep"
	case Follower:
		return "follower"
	case Disconnector:
		return "disconnector"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// Mix is the fleet's behavior composition as integer weights. Clients
// are assigned classes by weighted round-robin over the client index,
// so a 2000-client fleet with weights {5,1,3,1} has exactly 1000
// cache-hot, 200 cold-sweep, 600 follower and 200 disconnector clients.
type Mix struct {
	CacheHot     int
	ColdSweep    int
	Follower     int
	Disconnector int
}

// DefaultMix is a read-heavy composition: half the fleet hammering the
// cache, a tail of cold work, and a strong follower contingent.
func DefaultMix() Mix { return Mix{CacheHot: 5, ColdSweep: 1, Follower: 3, Disconnector: 1} }

func (m Mix) total() int { return m.CacheHot + m.ColdSweep + m.Follower + m.Disconnector }

// classOf assigns a class to client i by weighted partition of
// i mod total — deterministic, exact proportions.
func (m Mix) classOf(i int) Class {
	r := i % m.total()
	if r < m.CacheHot {
		return CacheHot
	}
	r -= m.CacheHot
	if r < m.ColdSweep {
		return ColdSweep
	}
	r -= m.ColdSweep
	if r < m.Follower {
		return Follower
	}
	return Disconnector
}

// ParseMix parses "cachehot=5,cold=1,follower=3,disconnect=1". Absent
// classes get weight 0; at least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: mix term %q is not name=weight", part)
		}
		var w int
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", val)
		}
		switch name {
		case "cachehot":
			m.CacheHot = w
		case "cold", "coldsweep":
			m.ColdSweep = w
		case "follower":
			m.Follower = w
		case "disconnect", "disconnector":
			m.Disconnector = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix class %q (want cachehot, cold, follower, disconnect)", name)
		}
	}
	if m.total() <= 0 {
		return Mix{}, fmt.Errorf("loadgen: mix has no positive weight")
	}
	return m, nil
}

// Options tune the fleet.
type Options struct {
	// BaseURL is the koalad under test (http://host:port).
	BaseURL string
	// Clients is the fleet size (goroutines; default 200).
	Clients int
	// Requests is how many operations each client performs (default 5).
	Requests int
	// Seed derives every per-client PRNG and the config fingerprints the
	// fleet submits. Two runs with the same seed issue the same request
	// schedule against the same fingerprints; a different seed is a
	// fully cold fleet.
	Seed uint64
	// Mix is the behavior composition (default DefaultMix).
	Mix Mix
	// HotConfigs is the size of the pre-warmed cache-hot pool
	// (default 4).
	HotConfigs int
	// Jobs and Runs size the submitted experiments (default 2 jobs,
	// 1 replication — the point of the fleet is server load, not
	// simulation depth).
	Jobs int
	Runs int
	// OpTimeout bounds one client operation end to end, including 429
	// retries (default 2 minutes).
	OpTimeout time.Duration
	// HTTPClient overrides the fleet's tuned shared client (tests).
	HTTPClient *http.Client
}

func (o Options) withDefaults() (Options, error) {
	if o.BaseURL == "" {
		return o, fmt.Errorf("loadgen: BaseURL is required")
	}
	o.BaseURL = strings.TrimRight(o.BaseURL, "/")
	if o.Clients == 0 {
		o.Clients = 200
	}
	if o.Clients < 1 {
		return o, fmt.Errorf("loadgen: Clients must be positive, got %d", o.Clients)
	}
	if o.Requests == 0 {
		o.Requests = 5
	}
	if o.Requests < 1 {
		return o, fmt.Errorf("loadgen: Requests must be positive, got %d", o.Requests)
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix()
	}
	if o.Mix.total() <= 0 || o.Mix.CacheHot < 0 || o.Mix.ColdSweep < 0 || o.Mix.Follower < 0 || o.Mix.Disconnector < 0 {
		return o, fmt.Errorf("loadgen: mix weights must be non-negative with a positive total")
	}
	if o.HotConfigs == 0 {
		o.HotConfigs = 4
	}
	if o.HotConfigs < 1 {
		return o, fmt.Errorf("loadgen: HotConfigs must be positive, got %d", o.HotConfigs)
	}
	if o.Jobs == 0 {
		o.Jobs = 2
	}
	if o.Runs == 0 {
		o.Runs = 1
	}
	if o.Jobs < 1 || o.Runs < 1 {
		return o, fmt.Errorf("loadgen: Jobs and Runs must be positive")
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 2 * time.Minute
	}
	if o.HTTPClient == nil {
		o.HTTPClient = newFleetHTTPClient()
	}
	return o, nil
}

// newFleetHTTPClient returns a client tuned for thousands of concurrent
// short requests plus long-held NDJSON streams against one host: the
// default Transport caps idle conns per host at 2, which would make a
// 2000-client fleet re-dial on nearly every request.
func newFleetHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// Config-seed derivation. Every fingerprint the fleet submits embeds
// the fleet seed, so re-running with a new seed is fully cold even
// against a long-lived daemon, and re-running with the same seed is
// intentionally cache-warm.
const (
	hotSeedSpan  = 0       // hot pool: fleetBase + [0, HotConfigs)
	waveSeedSpan = 1 << 28 // follower/disconnector rounds: fleetBase + span + round
	coldSeedSpan = 1 << 29 // cold sweeps: fleetBase + span + client*Requests + op
	fleetStride  = uint64(1) << 32
)

func (o Options) fleetBase() uint64 { return o.Seed * fleetStride }

func (o Options) hotSeed(idx int) uint64 { return o.fleetBase() + hotSeedSpan + uint64(idx) }

func (o Options) waveSeed(round int) uint64 { return o.fleetBase() + waveSeedSpan + uint64(round) }

func (o Options) coldSeed(clientID, op int) uint64 {
	return o.fleetBase() + coldSeedSpan + uint64(clientID)*uint64(o.Requests) + uint64(op)
}

// configJSON renders the wire-form ConfigSpec a client submits: an
// inline workload on a fixed two-cluster grid, no background load, so
// one run costs milliseconds and the fingerprint is a pure function of
// the derived seed.
func (o Options) configJSON(class Class, seed uint64) []byte {
	name := "koalaload-" + class.String()
	return fmt.Appendf(nil,
		`{"name":%q,"workload":{"name":%q,"jobs":%d,"inter_arrival":30,"malleable_fraction":1,"initial_size":2,"rigid_size":2},"grid":{"clusters":[{"name":"A","nodes":48},{"name":"B","nodes":32}]},"no_background":true,"runs":%d,"seed":%d}`,
		name, name, o.Jobs, o.Runs, seed)
}

// splitmix64 is the per-client seed derivation: a full-avalanche mix of
// the fleet seed and client index, so adjacent clients get uncorrelated
// PRNG streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
