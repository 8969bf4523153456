package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark line of `go test -bench` output.
type sample struct {
	pkg, name string
	res       Result
}

// Parse reads `go test -bench` output and returns one Result per
// benchmark. A benchmark reported on several lines (go test -count=N)
// is recorded as the median of each metric over its lines, with Samples
// set to the line count and Spread to each metric's quartile spread. A
// name reported by two packages is qualified by its package on both.
func Parse(r io.Reader) (File, error) {
	var samples []sample
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if s, ok := parseLine(pkg, line); ok {
			samples = append(samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, fmt.Errorf("read: %w", err)
	}
	if len(samples) == 0 {
		return File{}, fmt.Errorf("no benchmark lines on stdin")
	}

	// Group the lines by (package, name) in first-seen order.
	type key struct{ pkg, name string }
	var keys []key
	groups := map[key][]Result{}
	pkgsOf := map[string]map[string]bool{}
	for _, s := range samples {
		k := key{s.pkg, s.name}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s.res)
		if pkgsOf[s.name] == nil {
			pkgsOf[s.name] = map[string]bool{}
		}
		pkgsOf[s.name][s.pkg] = true
	}
	file := New()
	for _, k := range keys {
		name := k.name
		if len(pkgsOf[name]) > 1 {
			name = k.pkg + ":" + name
		}
		file.Benchmarks[name] = summarize(groups[k])
	}
	return file, nil
}

// parseLine parses one "BenchmarkX-N  iters  v unit  v unit ..." line.
func parseLine(pkg, line string) (sample, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return sample{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return sample{}, false
	}
	// Strip the -N GOMAXPROCS suffix go test appends to benchmark names,
	// but only when N matches this process's GOMAXPROCS (the tool runs in
	// the same environment as the test, per make bench). go test omits
	// the suffix entirely at GOMAXPROCS=1, and a blind numeric strip
	// would mangle sub-benchmarks whose own names end in a number
	// (…/size-512).
	name := strings.TrimSuffix(fields[0], fmt.Sprintf("-%d", runtime.GOMAXPROCS(0)))
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return sample{}, false
	}
	res := Result{Package: pkg, Iterations: iters}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[fields[i+1]] = v
		}
	}
	return sample{pkg, name, res}, true
}

// summarize folds the lines of one benchmark into a Result: the median
// of every metric, the line count and, over several lines, the spread.
func summarize(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := Result{Package: rs[0].Package, Samples: len(rs)}
	// stat returns the median of one metric and records its spread
	// under unit ("" records none).
	stat := func(unit string, get func(Result) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = get(r)
		}
		med, spread := medianSpread(vs)
		if spread > 0 && unit != "" {
			if out.Spread == nil {
				out.Spread = map[string]float64{}
			}
			out.Spread[unit] = spread
		}
		return med
	}
	out.Iterations = int64(stat("", func(r Result) float64 { return float64(r.Iterations) }))
	out.NsPerOp = stat("ns/op", func(r Result) float64 { return r.NsPerOp })
	out.BytesPerOp = stat("B/op", func(r Result) float64 { return r.BytesPerOp })
	out.AllocsPerOp = stat("allocs/op", func(r Result) float64 { return r.AllocsPerOp })
	for unit := range rs[0].Metrics {
		if out.Metrics == nil {
			out.Metrics = map[string]float64{}
		}
		out.Metrics[unit] = stat(unit, func(r Result) float64 { return r.Metrics[unit] })
	}
	return out
}

// medianSpread returns the median of vs and its quartile spread: the
// distance between the medians of the lower and upper halves, over the
// median (0 when the median is 0).
func medianSpread(vs []float64) (median, spread float64) {
	sort.Float64s(vs)
	med := func(s []float64) float64 {
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	median = med(vs)
	half := len(vs) / 2
	q1, q3 := med(vs[:half]), med(vs[len(vs)-half:])
	if median != 0 {
		spread = (q3 - q1) / median
	}
	return median, spread
}
