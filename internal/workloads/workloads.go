// Package workloads models the paper's seven evaluation benchmarks — NPB
// FT, BT, CG, LU, SP (class D shapes), LULESH, and a dense Matmul kernel —
// as taskloop programs for the simulated machine.
//
// The ILAN scheduler never inspects a benchmark's arithmetic: it only sees
// task execution times, memory traffic, and imbalance. Each model therefore
// reproduces the scheduler-visible profile of its benchmark: how many
// taskloops run per timestep, their iteration/task counts, per-iteration
// compute and memory volumes, the access pattern (contiguous streaming vs
// irregular gather vs all-to-all transpose), the load imbalance across
// iterations, and the data-region placement. Per-benchmark parameters are
// documented in each file and derived from the kernels' published
// operation/byte characteristics.
package workloads

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Class selects the benchmark scale.
type Class uint8

const (
	// ClassTest is a reduced size for unit tests and testing.B benches.
	ClassTest Class = iota
	// ClassPaper is the scale used to regenerate the paper's figures.
	ClassPaper
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassTest:
		return "test"
	case ClassPaper:
		return "paper"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Benchmark is a registry entry: a named builder that assembles the
// benchmark's data regions and taskloop program on a machine.
type Benchmark struct {
	Name  string
	Build func(m *machine.Machine, cls Class) *taskrt.Program
}

// All returns the seven benchmarks in the paper's reporting order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "FT", Build: FT},
		{Name: "BT", Build: BT},
		{Name: "CG", Build: CG},
		{Name: "LU", Build: LU},
		{Name: "SP", Build: SP},
		{Name: "Matmul", Build: Matmul},
		{Name: "LULESH", Build: LULESH},
	}
}

// ByName returns the benchmark with the given name, searching the paper's
// seven benchmarks and the extension set.
func ByName(name string) (Benchmark, bool) {
	for _, b := range AllWithExtensions() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// --- model-building toolkit ---

// StreamDef is a contiguous, iteration-sliced access to a region: iteration
// i touches bytes [i*BytesPerIter, (i+1)*BytesPerIter). The region must be
// sized Iters*BytesPerIter by newStreamRegion.
type StreamDef struct {
	Region       *memsys.Region
	BytesPerIter int64
}

// SpanDef is an access spread over the whole region: Gather for irregular
// indexed loads, Transpose for strided all-to-all.
type SpanDef struct {
	Region       *memsys.Region
	BytesPerIter int64
	Pattern      memsys.Pattern
}

// LoopDef declares one taskloop of a benchmark model.
type LoopDef struct {
	Name           string
	Iters          int
	Tasks          int
	ComputePerIter float64
	// Weight scales per-iteration compute (nil = uniform). It is the
	// model's load-imbalance profile.
	Weight  func(iter int) float64
	Streams []StreamDef
	Spans   []SpanDef
}

// Spec compiles a LoopDef into a runtime LoopSpec with the given ID.
func (d LoopDef) Spec(id int) *taskrt.LoopSpec {
	iters := d.Iters
	streams := append([]StreamDef(nil), d.Streams...)
	spans := append([]SpanDef(nil), d.Spans...)
	compute := d.ComputePerIter
	weight := d.Weight
	// Affinity hint, as a programmer would annotate it: the home node of
	// the chunk's primary streamed slice. Span-only loops (gathers,
	// transposes) have no meaningful single-node affinity.
	var hint func(lo, hi int) int
	if len(streams) > 0 {
		s0 := streams[0]
		hint = func(lo, hi int) int {
			mid := (int64(lo) + int64(hi)) / 2 * s0.BytesPerIter
			if mid >= s0.Region.Size() {
				mid = s0.Region.Size() - 1
			}
			return s0.Region.HomeNode(mid)
		}
	}
	// The accesses are written into one slice the closure owns, made on
	// the first call so that building a program allocates no more: each
	// call overwrites the previous call's result (see taskrt.DemandFunc).
	nAcc := len(streams) + len(spans)
	var scratch []memsys.Access
	return &taskrt.LoopSpec{
		ID:    id,
		Name:  d.Name,
		Iters: iters,
		Tasks: d.Tasks,
		Hint:  hint,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			var sec float64
			if weight == nil {
				sec = compute * float64(hi-lo)
			} else {
				for i := lo; i < hi; i++ {
					sec += compute * weight(i)
				}
			}
			if scratch == nil && nAcc > 0 {
				scratch = make([]memsys.Access, 0, nAcc)
			}
			acc := scratch
			for _, s := range streams {
				acc = append(acc, memsys.Access{
					Region:  s.Region,
					Offset:  int64(lo) * s.BytesPerIter,
					Bytes:   int64(hi-lo) * s.BytesPerIter,
					Pattern: memsys.Stream,
				})
			}
			for _, g := range spans {
				acc = append(acc, memsys.Access{
					Region:  g.Region,
					Offset:  0,
					Bytes:   int64(hi-lo) * g.BytesPerIter,
					Span:    g.Region.Size(),
					Pattern: g.Pattern,
				})
			}
			return sec, acc
		},
	}
}

// newStreamRegion allocates a region sized for an iteration-sliced stream
// and places it block-contiguously across all NUMA nodes — the layout a
// parallel static first-touch initialization produces on the real machine.
func newStreamRegion(m *machine.Machine, name string, iters int, bytesPerIter int64) *memsys.Region {
	r := m.Memory().NewRegion(name, int64(iters)*bytesPerIter)
	r.PlaceBlocked(nodeIDs(m))
	return r
}

// newSharedRegion allocates a region of the given size placed
// block-contiguously across all nodes (shared read-mostly data such as the
// CG matrix operand vector).
func newSharedRegion(m *machine.Machine, name string, size int64) *memsys.Region {
	r := m.Memory().NewRegion(name, size)
	r.PlaceBlocked(nodeIDs(m))
	return r
}

func nodeIDs(m *machine.Machine) []int {
	out := make([]int, m.Topology().NumNodes())
	for i := range out {
		out[i] = i
	}
	return out
}

// program assembles a Program from loop definitions executed once each per
// step, for the given number of steps.
func program(name string, steps int, defs []LoopDef) *taskrt.Program {
	p := &taskrt.Program{Name: name}
	for i, d := range defs {
		p.Loops = append(p.Loops, d.Spec(i+1))
	}
	for s := 0; s < steps; s++ {
		for i := range defs {
			p.Sequence = append(p.Sequence, i)
		}
	}
	return p
}

// hashWeight returns a deterministic pseudo-random weight in
// [1-amp, 1+amp] for an iteration index: the imbalance profile of
// irregular kernels. The hash is splitmix64-style so adjacent iterations
// are uncorrelated.
func hashWeight(i int, amp float64) float64 {
	z := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53) // [0,1)
	return 1 + amp*(2*u-1)
}

// scaled divides n by 4 for the test class, with a floor of lo.
func scaled(cls Class, n, lo int) int {
	if cls == ClassPaper {
		return n
	}
	n /= 4
	if n < lo {
		n = lo
	}
	return n
}

// scaledSteps halves the timestep count for the test class with a floor of
// 20, so that ILAN's configuration search still amortizes at test scale
// (the paper's "taskloops execute numerous times" requirement).
func scaledSteps(cls Class, n int) int {
	if cls == ClassPaper {
		return n
	}
	n /= 2
	if n < 20 {
		n = 20
	}
	return n
}
