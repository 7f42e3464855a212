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
//
// Each model is a looplang.Document written as a Go literal, one per
// class, and looplang compiles it like any document read from a file.
// Every region is placed block-contiguously across all NUMA nodes — the
// layout a parallel static first-touch initialization produces on the real
// machine. A region without a size is a stream region, sized to the
// iterations that walk it; a sized one is shared data.
package workloads

import (
	"fmt"
	"slices"

	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
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
	// Digest is the looplang.Document.Digest of a benchmark read from a
	// document file (FromDocument). It is empty for the built-in models,
	// which their name and the class identify.
	Digest string
}

// Short names for the document types the models are written in.
type (
	region    = looplang.RegionDecl
	loop      = looplang.LoopDecl
	access    = looplang.AccessDecl
	imbalance = looplang.ImbalanceDecl
)

// stream, gather and transpose declare a loop's one access of each kind,
// with its per-iteration volume in KiB.
func stream(region string, kb int64) []access {
	return []access{{Region: region, KBPerIter: kb}}
}

func gather(region string, kb int64) []access {
	return []access{{Region: region, KBPerIter: kb, Pattern: "gather"}}
}

func transpose(region string, kb int64) []access {
	return []access{{Region: region, KBPerIter: kb, Pattern: "transpose"}}
}

// models are the built-in benchmarks: the paper's seven in its reporting
// order, then the extensions.
var models = []Benchmark{
	model(ft), model(bt), model(cg), model(lu), model(sp), model(matmul), model(lulesh),
	model(ep), model(mg), model(is),
}

// All returns the seven benchmarks in the paper's reporting order.
func All() []Benchmark { return slices.Clone(models[:7]) }

// Extensions returns the extension benchmarks (not part of the paper's
// figures; run them by name or via AllWithExtensions).
func Extensions() []Benchmark { return slices.Clone(models[7:]) }

// AllWithExtensions returns the paper's seven benchmarks followed by the
// extension set.
func AllWithExtensions() []Benchmark { return slices.Clone(models) }

// ByName returns the benchmark with the given name, searching the paper's
// seven benchmarks and the extension set.
func ByName(name string) (Benchmark, bool) {
	for _, b := range models {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// model makes a built-in benchmark from its description. The document of
// each class is made and validated here, once; every Build compiles it.
func model(describe func(Class) *looplang.Document) Benchmark {
	test, paper := describe(ClassTest), describe(ClassPaper)
	for _, d := range []*looplang.Document{test, paper} {
		if err := d.Validate(); err != nil {
			panic(err)
		}
	}
	return Benchmark{Name: paper.Name, Build: func(m *machine.Machine, cls Class) *taskrt.Program {
		if cls == ClassPaper {
			return build(paper, m)
		}
		return build(test, m)
	}}
}

// FromDocument returns a benchmark that runs doc, which Validate must
// accept. A document fixes its own sizes, so the class does not scale it.
// Its Build panics where doc.Build fails, so check doc.Build once on the
// topology the benchmark will run on.
func FromDocument(doc *looplang.Document) Benchmark {
	return Benchmark{Name: doc.Name, Digest: doc.Digest(), Build: func(m *machine.Machine, _ Class) *taskrt.Program {
		return build(doc, m)
	}}
}

func build(doc *looplang.Document, m *machine.Machine) *taskrt.Program {
	p, err := doc.Build(m)
	if err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", doc.Name, err))
	}
	return p
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
