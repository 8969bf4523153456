package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file folds a CPU profile (the gzipped profile.proto that
// runtime/pprof and /debug/pprof/profile write) into per-layer self
// time. Each sample goes to the innermost frame of a repro/internal
// package; a sample with no such frame goes to "http" when a net or
// net/http frame is on its stack, to "runtime" when every frame is the
// Go runtime's (GC, scheduler), and to "unattributed" otherwise. The
// buckets therefore partition the profile: they sum to its total.

// repoLayers are the repro/internal packages reported as layers. A
// sample whose innermost repo frame lies in any other package is
// unattributed.
var repoLayers = []string{
	"app", "backend", "cluster", "core", "dynaco", "experiment", "gram",
	"koala", "lrm", "metrics", "obs", "parallel", "runner", "server",
	"sim", "stats", "store", "workload",
}

// simLayers are the simulator's packages: what koalad spends simulating.
var simLayers = []string{
	"app", "cluster", "core", "dynaco", "gram", "koala", "lrm", "runner",
	"sim", "workload",
}

const repoPrefix = "repro/internal/"

// layerOfFunc returns the repro/internal package of a symbol such as
// "repro/internal/sim.(*Engine).Run", or "" for any other symbol.
func layerOfFunc(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isNetFunc(fn string) bool {
	return strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") ||
		strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/")
}

func isRuntimeFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") || fn == "gcBgMarkWorker"
}

// bucketOf folds one stack, innermost frame first, to its bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			if slices.Contains(repoLayers, l) {
				return l
			}
			return "unattributed"
		}
	}
	allRuntime := len(stack) > 0
	for _, fn := range stack {
		if isNetFunc(fn) {
			return "http"
		}
		if !isRuntimeFunc(fn) {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "unattributed"
}

// profileFold is a CPU profile reduced to nanoseconds per bucket.
type profileFold struct {
	TotalNs int64
	Buckets map[string]int64
}

// sumNs adds up the named buckets.
func (f profileFold) sumNs(names ...string) int64 {
	var s int64
	for _, n := range names {
		s += f.Buckets[n]
	}
	return s
}

// foldCPUProfile decodes a gzipped CPU profile and folds it by layer.
func foldCPUProfile(data []byte) (profileFold, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return profileFold{}, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return profileFold{}, errors.New("pprof: profile has no cpu sample type")
	}
	fold := profileFold{Buckets: map[string]int64{}}
	memo := map[string]string{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		key := strings.Join(stack, "\x00")
		b, ok := memo[key]
		if !ok {
			b = bucketOf(stack)
			memo[key] = b
		}
		fold.Buckets[b] += s.values[vi]
		fold.TotalNs += s.values[vi]
	}
	return fold, nil
}

// rawProfile holds the parts of profile.proto the fold needs.
type rawProfile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []rawSample
	locLines    map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcName    map[uint64]int64    // function ID -> string index of its name
	strings     []string
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(data []byte) (*rawProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &rawProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints decodes a repeated scalar field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v, length-delimited ones their bytes in b.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("pprof: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("pprof: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
