package machine

import (
	"fmt"
	"strings"

	"github.com/ilan-sched/ilan/internal/memsys"
)

// Counters is the simulated analogue of the ILAN artifact's PERF_COUNTERS
// facility: per-resource traffic, compute/memory time split, and cache
// statistics, sampled for the whole run. The paper leaves feeding these
// into the scheduler's configuration selection as future work; here they
// are available both for inspection and for the energy-aware selection
// extension (see internal/ilan's Objective).
type Counters struct {
	// ResourceBytes[r] is the service demand issued to resource r in
	// bytes (distance- and pattern-inflated, as the controller sees it),
	// before per-task execution jitter: the traffic the workload asked for.
	ResourceBytes []float64
	// RealizedBytes[r] is the traffic the fluid model actually drains on
	// resource r: the same demand scaled by each task's execution jitter.
	// With noise disabled it equals ResourceBytes exactly; with noise on
	// the two differ per run, and conflating them (the pre-split bug)
	// over- or under-charged the counters relative to simulated time.
	RealizedBytes []float64
	// ComputeSeconds is the summed compute-component time of all tasks
	// (at unit core speed, before noise).
	ComputeSeconds float64
	// MemorySeconds is the summed memory-component wall time of all tasks
	// (the max-component residency, i.e. time during which the task was
	// limited by the memory system).
	MemorySeconds float64
	// CacheHits / CacheMisses are block-granular L3 lookups.
	CacheHits   uint64
	CacheMisses uint64
	// Tasks is the number of task executions sampled.
	Tasks uint64
}

// Counters returns a snapshot of the machine's counters so far.
func (m *Machine) Counters() Counters {
	c := m.counters
	c.ResourceBytes = append([]float64(nil), m.counters.ResourceBytes...)
	c.RealizedBytes = append([]float64(nil), m.counters.RealizedBytes...)
	c.CacheHits, c.CacheMisses = m.caches.Stats()
	return c
}

// TimeSplit returns the Counters' ComputeSeconds and MemorySeconds without
// copying the per-resource arrays: the two scalars the runtime samples at
// every loop's start and end.
func (m *Machine) TimeSplit() (computeSec, memorySec float64) {
	return m.counters.ComputeSeconds, m.counters.MemorySeconds
}

// MemoryIntensity returns memory seconds / (compute + memory) seconds: the
// fraction of execution the machine spent limited by the memory system —
// the quantity the paper calls memory intensity when reasoning about which
// taskloops profit from moldability.
func (c Counters) MemoryIntensity() float64 {
	total := c.ComputeSeconds + c.MemorySeconds
	if total == 0 {
		return 0
	}
	return c.MemorySeconds / total
}

// CacheHitRate returns the L3 block hit fraction (0 when nothing sampled).
func (c Counters) CacheHitRate() float64 {
	total := c.CacheHits + c.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(total)
}

// TotalBytes sums the demanded traffic across all resources.
func (c Counters) TotalBytes() float64 {
	var t float64
	for _, b := range c.ResourceBytes {
		t += b
	}
	return t
}

// TotalRealizedBytes sums the jitter-scaled traffic the fluid model
// actually drained across all resources.
func (c Counters) TotalRealizedBytes() float64 {
	var t float64
	for _, b := range c.RealizedBytes {
		t += b
	}
	return t
}

// Format renders the counters with resource names from the given set.
func (c Counters) Format(res *memsys.ResourceSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tasks=%d compute=%.4fs memory=%.4fs (intensity %.2f) cache-hit %.3f\n",
		c.Tasks, c.ComputeSeconds, c.MemorySeconds, c.MemoryIntensity(), c.CacheHitRate())
	for r, bytes := range c.ResourceBytes {
		if bytes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %10.1f MB\n", res.Name(memsys.ResourceID(r)), bytes/1e6)
	}
	return b.String()
}
