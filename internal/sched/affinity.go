package sched

import (
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Affinity models a runtime honouring the OpenMP affinity clause the paper
// discusses in §3.4: tasks carrying a programmer-provided hint are
// initially placed on the hinted NUMA node, but the hint is not binding —
// any idle thread may still steal them, topology-free, exactly like the
// baseline. There is no interference awareness: every loop runs at full
// width, and nothing adapts to runtime conditions. Loops without hints
// degrade to the baseline's master-queue placement.
//
// The paper's argument — that ILAN subsumes affinity by adding structured
// distribution, NUMA-aware stealing and moldability — is reproducible by
// comparing this scheduler against ILAN (harness experiment "affinity").
type Affinity struct {
	// firstFree is Plan's per-node table of the node's first free core,
	// kept across calls so planning allocates nothing.
	firstFree []int
}

// Name implements taskrt.Scheduler.
func (a *Affinity) Name() string { return "affinity" }

// Plan implements taskrt.Scheduler.
func (a *Affinity) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	topo := rt.Topology()
	p := rt.NewPlan()
	p.Active = freeCores(p.Active, rt, occ)
	p.Mode = taskrt.StealFlat
	free := p.Active
	// A hint lands on the first free core of the hinted node; if a
	// co-runner owns the whole node (or there is no hint), the first free
	// core stands in. Empty occupancy reduces both to the original
	// primary-core / core-0 placement.
	firstFree := resize(a.firstFree, topo.NumNodes())
	a.firstFree = firstFree
	for n := range firstFree {
		firstFree[n] = -1
	}
	for _, c := range free {
		if n := topo.NodeOfCore(c); firstFree[n] < 0 {
			firstFree[n] = c
		}
	}
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		core := free[0]
		if spec.Hint != nil {
			if node := spec.Hint(lo, hi); node >= 0 && node < topo.NumNodes() && firstFree[node] >= 0 {
				core = firstFree[node]
			}
		}
		p.Place = append(p.Place, taskrt.TaskPlacement{Lo: lo, Hi: hi, Core: core})
	}
	return p
}

// Observe implements taskrt.Scheduler; affinity keeps no state.
func (a *Affinity) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

var _ taskrt.Scheduler = (*Affinity)(nil)
