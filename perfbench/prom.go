package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSnapshot maps every sample line of a Prometheus text exposition,
// keyed by its series (metric name plus label set, as written), to its
// value.
type promSnapshot map[string]float64

func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces,
		// so split after the closing brace when there is one.
		cut := strings.LastIndexByte(line, '}')
		rest := line
		series := ""
		if cut >= 0 {
			series, rest = line[:cut+1], strings.TrimSpace(line[cut+1:])
		} else {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("prometheus: malformed line %q", line)
			}
			series, rest = f[0], strings.Join(f[1:], " ")
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("prometheus: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus: bad value in %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// family sums every series of the metric called name, over all label
// sets.
func (p promSnapshot) family(name string) float64 {
	s := 0.0
	for series, v := range p {
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base = series[:i]
		}
		if base == name {
			s += v
		}
	}
	return s
}

// delta is the growth of a counter family between two scrapes.
func delta(before, after promSnapshot, name string) float64 {
	return after.family(name) - before.family(name)
}

// histMeanMs is the mean of the observations a histogram (in seconds)
// received between two scrapes, in milliseconds, from its _sum and
// _count deltas. ok is false when it received none.
func histMeanMs(before, after promSnapshot, name string) (ms float64, n float64, ok bool) {
	n = delta(before, after, name+"_count")
	if n <= 0 {
		return 0, 0, false
	}
	return delta(before, after, name+"_sum") / n * 1000, n, true
}
