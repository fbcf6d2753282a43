package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The reducer below reads the gzipped protocol-buffer profiles that
// runtime/pprof writes, with nothing but the standard library: it decodes
// only the fields that self-time attribution needs (samples with their
// stacks, values and string labels; locations; functions; the string
// table) and skips every other field by wire type.

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames expanded innermost first), its CPU time, and its
// string labels.
type profSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strtab    []string
		valueIdx  = -1 // index of the cpu/nanoseconds value
		types     [][2]int64
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l [2]int64
					err := fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							l[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, l := range s.labels {
				ps.labels[str(l[0])] = str(l[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields walks one protocol-buffer message, calling f with each field's
// number and wire type, and its varint value or its bytes.
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const (
	modulePrefix  = "invisifence/internal/"
	runtimeLayer  = "runtime"
	unattributed  = "unattributed"
	rootPkgLayer  = "invisifence"
	rootPkgPrefix = "invisifence."
)

// layerOf attributes a sample's self time: a leaf in the Go runtime
// (allocation, GC, scheduling, maps, memmove) goes to the runtime bucket;
// otherwise the innermost frame in invisifence/internal/<pkg> names the
// layer, and the root invisifence package is a layer of its own. Samples
// with no frame in the module (HTTP serving, syscalls) are unattributed.
func layerOf(stack []string) string {
	if len(stack) > 0 && isRuntime(stack[0]) {
		return runtimeLayer
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, rootPkgPrefix) {
			return rootPkgLayer
		}
	}
	return unattributed
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// layerTimes sums self time (seconds) per layer over the samples that
// keep returns true for.
func layerTimes(samples []profSample, keep func(profSample) bool) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		if keep == nil || keep(s) {
			out[layerOf(s.stack)] += float64(s.nanos) / 1e9
		}
	}
	return out
}

// cumulative sums the time (seconds) of samples whose stack contains fn.
func cumulative(samples []profSample, fn string) float64 {
	var t float64
	for _, s := range samples {
		for _, f := range s.stack {
			if f == fn {
				t += float64(s.nanos) / 1e9
				break
			}
		}
	}
	return t
}

// layerTable renders layer self times as shares, largest first.
func layerTable(times map[string]float64) string {
	var total float64
	names := make([]string, 0, len(times))
	for n, t := range times {
		total += t
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if times[names[i]] != times[names[j]] {
			return times[names[i]] > times[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f%%", n, 100*times[n]/total)
	}
	return strings.TrimSpace(b.String())
}

// largest names the layer with the most self time.
func largest(times map[string]float64) string {
	best := ""
	for n, t := range times {
		if best == "" || t > times[best] || (t == times[best] && n < best) {
			best = n
		}
	}
	return best
}
