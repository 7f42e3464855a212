package workloads

import (
	"slices"
	"testing"

	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

func newMachine() *machine.Machine {
	return machine.New(machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  1,
		Noise: machine.NoiseConfig{Enabled: false},
		Alpha: -1,
	})
}

func TestRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, b := range All() {
		names[b.Name] = true
	}
	for _, want := range []string{"FT", "BT", "CG", "LU", "SP", "Matmul", "LULESH"} {
		if !names[want] {
			t.Errorf("benchmark %s missing from registry", want)
		}
	}
	if len(All()) != 7 {
		t.Errorf("registry has %d entries, want 7", len(All()))
	}
}

func TestByName(t *testing.T) {
	if b, ok := ByName("CG"); !ok || b.Name != "CG" {
		t.Fatal("ByName(CG) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestAllProgramsValidate(t *testing.T) {
	for _, cls := range []Class{ClassTest, ClassPaper} {
		for _, b := range All() {
			t.Run(b.Name+"-"+cls.String(), func(t *testing.T) {
				m := newMachine()
				p := b.Build(m, cls)
				if err := p.Validate(); err != nil {
					t.Fatalf("program invalid: %v", err)
				}
				if p.Name != b.Name {
					t.Errorf("program name %q != benchmark name %q", p.Name, b.Name)
				}
				if len(p.Sequence) < len(p.Loops) {
					t.Error("sequence shorter than loop set")
				}
			})
		}
	}
}

func TestDemandsAreWithinRegions(t *testing.T) {
	// Resolving every task of every loop must not panic (out-of-range
	// accesses panic inside the resolver).
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			m := newMachine()
			p := b.Build(m, ClassPaper)
			for _, l := range p.Loops {
				for ti := 0; ti < l.Tasks; ti++ {
					lo, hi := l.ChunkBounds(ti)
					sec, acc := l.Demand(lo, hi)
					if sec < 0 {
						t.Fatalf("loop %s task %d: negative compute", l.Name, ti)
					}
					var d memsys.Demand
					// Resolve on a few representative cores.
					for _, core := range []int{0, 31, 63} {
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("loop %s task %d core %d: %v", l.Name, ti, core, r)
								}
							}()
							memsys.NewResolver(m.Topology(), m.Resources(), m.Caches()).
								Resolve(core, acc, &d)
						}()
					}
				}
			}
		})
	}
}

func TestClassScaling(t *testing.T) {
	cg, _ := ByName("CG")
	test := cg.Build(newMachine(), ClassTest)
	paper := cg.Build(newMachine(), ClassPaper)
	if len(test.Sequence) >= len(paper.Sequence) {
		t.Fatal("test class not smaller than paper class")
	}
	var testTasks, paperTasks int
	for _, l := range test.Loops {
		testTasks += l.Tasks
	}
	for _, l := range paper.Loops {
		paperTasks += l.Tasks
	}
	if testTasks >= paperTasks {
		t.Fatal("test class tasks not reduced")
	}
}

func TestScaledFloor(t *testing.T) {
	if got := scaled(ClassTest, 10, 8); got != 8 {
		t.Fatalf("scaled floor = %d, want 8", got)
	}
	if got := scaled(ClassPaper, 10, 8); got != 10 {
		t.Fatalf("scaled paper = %d, want 10", got)
	}
}

func TestStreamRegionPlacementAlignsWithChunks(t *testing.T) {
	m := newMachine()
	iters := 512
	doc := &looplang.Document{Name: "x", Steps: 1, Regions: []region{{Name: "x"}},
		Loops: []loop{{Name: "l", Iters: iters, Tasks: 1, Streams: stream("x", 300)}}}
	build(doc, m)
	r := m.Memory().Regions()[0]
	numNodes := m.Topology().NumNodes()
	// Iteration slice i*bytes/iter should be homed on node i*numNodes/iters
	// (within block-granularity rounding).
	misplaced := 0
	for i := 0; i < iters; i++ {
		off := int64(i) * (300 << 10)
		want := i * numNodes / iters
		if r.HomeNode(off) != want {
			misplaced++
		}
	}
	// Rounding at block boundaries may misplace a handful of iterations.
	if misplaced > iters/10 {
		t.Fatalf("%d/%d iterations misplaced relative to contiguous mapping", misplaced, iters)
	}
}

func TestWorkloadRunsUnderBaseline(t *testing.T) {
	// Smoke: every benchmark must run to completion at test scale.
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			m := newMachine()
			p := b.Build(m, ClassTest)
			rt := taskrt.New(m, &sched.Baseline{}, taskrt.DefaultCosts())
			res, err := rt.RunProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 || res.TasksExecuted == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
		})
	}
}

// TestDemandFunctionsArePure: the runtime may evaluate Demand in any order
// and multiple times; results must be identical for identical ranges. A
// Demand reuses its result slice on the next call, so the first result is
// cloned before a call over another range and the repeat.
func TestDemandFunctionsArePure(t *testing.T) {
	for _, b := range AllWithExtensions() {
		t.Run(b.Name, func(t *testing.T) {
			m := newMachine()
			p := b.Build(m, ClassTest)
			for _, l := range p.Loops {
				lo, hi := l.ChunkBounds(l.Tasks / 2)
				c1, a1 := l.Demand(lo, hi)
				a1 = slices.Clone(a1)
				l.Demand(l.ChunkBounds(0))
				c2, a2 := l.Demand(lo, hi)
				if c1 != c2 {
					t.Fatalf("loop %s: compute differs across calls: %g vs %g", l.Name, c1, c2)
				}
				if len(a1) != len(a2) {
					t.Fatalf("loop %s: access count differs", l.Name)
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("loop %s: access %d differs", l.Name, i)
					}
				}
			}
		})
	}
}

// TestChunkDemandsAreMonotone: larger chunks never demand less work.
func TestChunkDemandsAreMonotone(t *testing.T) {
	for _, b := range AllWithExtensions() {
		m := newMachine()
		p := b.Build(m, ClassTest)
		for _, l := range p.Loops {
			cSmall, _ := l.Demand(0, 1)
			cBig, _ := l.Demand(0, l.Iters/2)
			if cBig < cSmall {
				t.Fatalf("%s/%s: half-loop compute %g < single-iter %g",
					b.Name, l.Name, cBig, cSmall)
			}
		}
	}
}

// TestHintsAreValidNodes: every affinity hint must name a real node.
func TestHintsAreValidNodes(t *testing.T) {
	for _, b := range AllWithExtensions() {
		m := newMachine()
		p := b.Build(m, ClassTest)
		for _, l := range p.Loops {
			if l.Hint == nil {
				continue
			}
			for ti := 0; ti < l.Tasks; ti++ {
				lo, hi := l.ChunkBounds(ti)
				n := l.Hint(lo, hi)
				if n < 0 || n >= m.Topology().NumNodes() {
					t.Fatalf("%s/%s: hint %d out of range", b.Name, l.Name, n)
				}
			}
		}
	}
}
