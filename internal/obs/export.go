package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Snapshot is an immutable export of a Run (or of several merged Runs).
// JSON field maps serialize with sorted keys (encoding/json), so a
// snapshot's JSON form is byte-deterministic for identical contents —
// the property the jobs=1 vs jobs=N determinism gate checks.
type Snapshot struct {
	// Runs counts the simulated runs merged into this snapshot. Counter,
	// histogram, and profile values are sums over those runs; gauge values
	// are arithmetic means (see Merge).
	Runs       int                     `json:"runs"`
	Counters   map[string]float64      `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// Decisions is the concatenated ILAN decision trace, ordered by
	// (rep, recording order). DecisionsTotal counts decisions ever
	// recorded; when it exceeds len(Decisions), ring capacity truncated
	// the oldest entries.
	Decisions      []Decision `json:"decisions,omitempty"`
	DecisionsTotal uint64     `json:"decisionsTotal,omitempty"`
	// Profile maps folded stacks ("loop;component") to virtual seconds.
	Profile map[string]float64 `json:"profile,omitempty"`
}

// Merge combines per-run snapshots (in order) into one aggregate: counters,
// histograms, and profile weights are summed; gauges are averaged over the
// runs that reported them; decision traces are concatenated. Nil snapshots
// are skipped; the result is nil when every input is nil. Merging is
// sequential in input order, so for a deterministic input order the merged
// snapshot is bit-deterministic too.
func Merge(snaps []*Snapshot) *Snapshot {
	var out *Snapshot
	gaugeRuns := map[string]int{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if out == nil {
			out = &Snapshot{}
		}
		out.Runs += s.Runs
		for _, name := range sortedKeys(s.Counters) {
			if out.Counters == nil {
				out.Counters = make(map[string]float64)
			}
			out.Counters[name] += s.Counters[name]
		}
		for _, name := range sortedKeys(s.Gauges) {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			out.Gauges[name] += s.Gauges[name] // sum now, divide by per-gauge runs below
			gaugeRuns[name] += s.Runs
		}
		for _, name := range sortedKeys(s.Histograms) {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistSnapshot)
			}
			out.Histograms[name] = mergeHist(out.Histograms[name], s.Histograms[name])
		}
		out.Decisions = append(out.Decisions, s.Decisions...)
		out.DecisionsTotal += s.DecisionsTotal
		for _, name := range sortedKeys(s.Profile) {
			if out.Profile == nil {
				out.Profile = make(map[string]float64)
			}
			out.Profile[name] += s.Profile[name]
		}
	}
	if out != nil {
		for name, n := range gaugeRuns {
			out.Gauges[name] /= float64(n)
		}
	}
	return out
}

// sortedKeys returns a map's keys in sorted order so float accumulation
// order (and thus the merged bits) never depends on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mergeHist(a, b HistSnapshot) HistSnapshot {
	if a.Counts == nil {
		return b.clone()
	}
	if len(a.Counts) != len(b.Counts) {
		// Bucket layouts diverged (should not happen for same-named
		// metrics); keep the first and fold the other into sum/count so no
		// sample disappears silently.
		a.Sum += b.Sum
		a.Count += b.Count
		return a
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Sum += b.Sum
	a.Count += b.Count
	return a
}

// WriteJSON emits the snapshot as deterministic indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// baseName strips a `{...}` label suffix from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, one `# TYPE` line per family: the counter and gauge families
// sorted by name, then the histogram families sorted by name. It is the
// one Prometheus writer: obsdump -format prom and the live monitor's
// /metrics both print through it.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	type sample struct {
		name, kind string
		v          float64
	}
	var samples []sample
	for name, v := range s.Counters {
		samples = append(samples, sample{name, "counter", v})
	}
	for name, v := range s.Gauges {
		samples = append(samples, sample{name, "gauge", v})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].name < samples[j].name })
	lastFamily := ""
	for _, sm := range samples {
		if fam := baseName(sm.name); fam != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, sm.kind); err != nil {
				return err
			}
			lastFamily = fam
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", sm.name, sm.v); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fam := baseName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
			return err
		}
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fam, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", fam, h.Sum, fam, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded renders the virtual-time profile as folded stacks consumable
// by flamegraph tools (`stack;frames weight`). Weights are integer
// microseconds of virtual time, rounded half away from zero so that no
// recorded component collapses to an empty line.
func (s *Snapshot) WriteFolded(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, k := range sortedKeys(s.Profile) {
		us := int64(math.Round(s.Profile[k] * 1e6))
		if us < 1 {
			us = 1
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, us); err != nil {
			return err
		}
	}
	return nil
}
