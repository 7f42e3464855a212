package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU shares per layer. The traced run profiles its untraced passes with
// runtime/pprof; this file decodes the profile (a gzipped protocol buffer,
// decoded here with the standard library only) and assigns every sample
// to one layer: the repository package nearest the leaf of its stack.
// Standard-library frames between the leaf and that package (runtime
// allocation, math, container/heap, syscalls) are charged to the package
// that called them, except the JSON and number codecs, which form the
// "encoding" layer, and garbage collection, which forms "gc".

// layers are the named layers, in report order. Shares of every named
// layer add up to cpu.covered.
var layers = []string{"machine", "sim", "memsys", "topology", "taskrt", "ilan", "sched",
	"workloads", "harness", "cellcache", "results", "chrometrace", "obs", "encoding", "gc", "runtime"}

const (
	modInternal = "github.com/ilan-sched/ilan/internal/"
	// modBench is this benchmark's own package path when built as a test;
	// the command itself is package main.
	modBench = "github.com/ilan-sched/ilan/bench/"
)

// layerAliases fold helper packages into the layer that owns them.
var layerAliases = map[string]string{"fsatomic": "cellcache", "stats": "harness"}

// encodingPkgs are the codec packages charged to the "encoding" layer.
var encodingPkgs = map[string]bool{"encoding/json": true, "encoding/hex": true,
	"encoding/binary": true, "strconv": true, "reflect": true, "unicode/utf8": true}

// gcPrefixes identify garbage-collector frames anywhere in a stack:
// background marking and sweeping, mark assists, and write barriers.
var gcPrefixes = []string{"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.wbBuf",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.deductSweepCredit", "runtime.(*mheap).reclaim"}

// pkgOf returns the package path of a fully qualified function name.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf classifies a stack (leaf first). It returns "bench" for the
// benchmark's own code, which is not a named layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case strings.HasPrefix(pkg, modInternal):
			name, _, _ := strings.Cut(pkg[len(modInternal):], "/")
			if a, ok := layerAliases[name]; ok {
				return a
			}
			return name
		case encodingPkgs[pkg]:
			return "encoding"
		case pkg == "main" || strings.HasPrefix(pkg, modBench):
			return "bench"
		}
	}
	return "runtime"
}

// cpuShares returns each layer's share of the profile's samples taken
// inside timed passes (plus background GC, which serves them), and the
// number of samples counted.
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := layerOf(s.stack)
		inPass := s.labels["ilanbench"] == "pass"
		if !inPass && !(len(s.labels) == 0 && layer == "gc") {
			continue
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
		shares["covered"] += shares[l]
	}
	return shares, total, nil
}

// profSample is one decoded sample: its stack (leaf first), sample count
// and string labels.
type profSample struct {
	stack  []string
	count  int64
	labels map[string]string
}

type profile struct{ samples []profSample }

// parseProfile decodes the fields of a pprof Profile message that
// cpuShares needs: samples with their locations and labels, locations
// with their (inlined) lines, functions, and the string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str string-table indexes
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, inner first
		fnName  = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err = forFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := forFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := forFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := forFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{samples: make([]profSample, 0, len(samples))}
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnName[fn]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// forFields calls fn for each field of a protocol-buffer message: varint
// fields pass their value, length-delimited fields their bytes (non-nil).
func forFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var field []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			field = b[n : n+int(l) : n+int(l)] // non-nil: b is non-empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, field); err != nil {
			return err
		}
	}
	return nil
}
