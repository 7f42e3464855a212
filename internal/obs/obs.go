// Package obs is the unified observability layer of the reproduction: a
// pluggable, near-zero-overhead subsystem the simulator stack reports into
// — named counters, gauges and histograms, a structured ring buffer of
// ILAN configuration decisions, and a virtual-time profile aggregated as
// folded stacks.
//
// The design follows the overhead contract of DESIGN.md §9:
//
//   - Disabled is the default. A Runtime/Machine with no obs.Run attached
//     executes the exact PR 2 hot path: high-frequency quantities (events
//     fired, steals, resource bytes) are *pulled* from counters the
//     simulator maintains anyway, at end of run, instead of being pushed
//     per event. The only always-on additions are plain integer
//     increments.
//   - A nil *Run is the disabled layer: Add, Set, Observe and the Ring and
//     Profile methods are no-ops on nil receivers, so the disabled path
//     costs one predictable nil-test branch.
//   - One Run belongs to one simulated run on one goroutine (the same
//     single-threaded contract as sim.Engine), so no locks are taken;
//     cross-run aggregation happens on immutable Snapshots.
//
// Metric names are Prometheus-style: `component_name_unit` with optional
// `{label="value"}` suffixes, e.g. `machine_mc_utilization{node="2"}`.
// Exporters (export.go) render Snapshots as Prometheus text, JSON, and
// folded stacks for flamegraph tools.
package obs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// DefaultRingCap is the decision-ring capacity used when the caller does
// not size it. A full ILAN campaign records one decision per taskloop
// execution; 4096 holds every decision of the paper-scale benchmarks.
const DefaultRingCap = 4096

// Run is one simulated run's collector. Add, Set and Observe record
// straight into the counter, gauge and histogram maps of the Snapshot the
// run exports; the decision ring and the virtual-time profile are
// optional. A nil *Run is the disabled observability layer: every method
// is nil-safe, so `rt.Obs().Decisions().Record(...)` costs two nil checks
// when observability is off.
type Run struct {
	m    Snapshot // Counters, Gauges and Histograms only
	ring *Ring
	prof *Profile
}

// Options configures a Run.
type Options struct {
	// TraceDecisions enables the decision ring buffer.
	TraceDecisions bool
	// RingCap sizes the ring (0 selects DefaultRingCap).
	RingCap int
}

// NewRun builds an enabled collector.
func NewRun(o Options) *Run {
	r := &Run{prof: NewProfile()}
	if o.TraceDecisions {
		capacity := o.RingCap
		if capacity == 0 {
			capacity = DefaultRingCap
		}
		r.ring = NewRing(capacity)
	}
	return r
}

// Add increases the named counter by v. Negative deltas panic: a counter
// that can decrease is a gauge, and silently accepting one would corrupt
// merges.
func (r *Run) Add(name string, v float64) {
	if r == nil {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("obs: counter %s decreased by %g", name, v))
	}
	if r.m.Counters == nil {
		r.m.Counters = make(map[string]float64)
	}
	r.m.Counters[name] += v
}

// Set stores the named gauge's current value.
func (r *Run) Set(name string, v float64) {
	if r == nil {
		return
	}
	if r.m.Gauges == nil {
		r.m.Gauges = make(map[string]float64)
	}
	r.m.Gauges[name] = v
}

// Observe records one sample into the named fixed-bucket histogram.
// bounds are upper bucket edges in ascending order; observations above
// the last bound land in the implicit +Inf bucket. The first Observe of a
// name fixes its bounds; later calls' bounds are ignored.
func (r *Run) Observe(name string, bounds []float64, v float64) {
	if r == nil {
		return
	}
	h, ok := r.m.Histograms[name]
	if !ok {
		if r.m.Histograms == nil {
			r.m.Histograms = make(map[string]HistSnapshot)
		}
		h = HistSnapshot{Bounds: slices.Clone(bounds), Counts: make([]uint64, len(bounds)+1)}
	}
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	h.Sum += v
	h.Count++
	r.m.Histograms[name] = h
}

// Snapshot exports a copy of the run's current state: recording after
// the call does not change the returned snapshot. A disabled run
// snapshots to nil.
func (r *Run) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Runs:           1,
		Counters:       maps.Clone(r.m.Counters),
		Gauges:         maps.Clone(r.m.Gauges),
		Histograms:     maps.Clone(r.m.Histograms),
		Decisions:      r.ring.Decisions(),
		DecisionsTotal: r.ring.Total(),
		Profile:        r.prof.fold(),
	}
	for name, h := range s.Histograms {
		s.Histograms[name] = h.clone()
	}
	return s
}

// Decisions returns the decision ring (nil when disabled or not traced).
func (r *Run) Decisions() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Profile returns the virtual-time profile (nil when disabled).
func (r *Run) Profile() *Profile {
	if r == nil {
		return nil
	}
	return r.prof
}

// HistSnapshot is a fixed-bucket histogram's state for export and
// merging.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last bucket is +Inf
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// clone returns a copy that shares no backing array with h.
func (h HistSnapshot) clone() HistSnapshot {
	h.Bounds = slices.Clone(h.Bounds)
	h.Counts = slices.Clone(h.Counts)
	return h
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution by linear interpolation within the bucket the quantile rank
// falls into, the same estimator as Prometheus' histogram_quantile: a
// bucket's samples are assumed uniform between its lower and upper bounds,
// the first bucket between 0 and its bound. A rank landing in the +Inf
// bucket clamps to the last finite bound (the estimator cannot see past
// it). Returns NaN when the histogram is empty.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		if float64(cum+c) < rank || c == 0 {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			// +Inf bucket: clamp to the last finite bound.
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}

// ExpBuckets returns n exponential bucket bounds starting at lo with the
// given growth factor — the standard latency-style bucketing.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad exponential buckets (lo=%g factor=%g n=%d)", lo, factor, n))
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Label renders one `{key="value"}` metric-name suffix. Values are
// formatted with %v, so integer node/CCD indices stay compact.
func Label(key string, value any) string {
	return fmt.Sprintf("{%s=%q}", key, fmt.Sprintf("%v", value))
}
