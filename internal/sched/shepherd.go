package sched

import (
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Shepherd models the multi-threaded-shepherd hierarchical scheduler of
// Olivier et al. — the prior work ILAN's task distribution takes
// inspiration from (paper §2.1/§3.3). Tasks are distributed contiguously
// to per-NUMA-node shepherds (the node primaries' deques) and spread
// inside each node by work-stealing; a worker crosses nodes only after its
// own shepherd runs dry, and then transfers a chunk of tasks at once to
// amortize steal operations.
//
// What it lacks relative to ILAN is exactly the paper's contribution: no
// performance tracing, no moldability (always full width), no per-loop
// steal-policy decision, no NUMA-strict task fraction. Comparing it
// against ILAN isolates the value of the adaptive machinery over pure
// hierarchical structure.
type Shepherd struct {
	// ChunkSize is the number of tasks a remote steal transfers
	// (default 4, "transferring chunks of tasks to reduce the required
	// number of steal operations").
	ChunkSize int

	// shepherdOf and nodes are Plan's per-node tables (each node's
	// shepherd core, the nodes that have one), kept across calls so
	// planning allocates nothing.
	shepherdOf []int
	nodes      []int
}

// Name implements taskrt.Scheduler.
func (s *Shepherd) Name() string { return "shepherd" }

// Plan implements taskrt.Scheduler.
func (s *Shepherd) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	topo := rt.Topology()
	chunk := s.ChunkSize
	if chunk <= 0 {
		chunk = 4
	}
	p := rt.NewPlan()
	p.Active = freeCores(p.Active, rt, occ)
	p.Mode = taskrt.StealHierarchical
	p.InterNodeSteal = true
	p.StealChunk = chunk
	// Shepherds are the first free core of each node that has any; the
	// contiguous task split spans only those nodes. With an empty
	// occupancy every node participates and its shepherd is its primary
	// core, the original full-width plan.
	shepherdOf := resize(s.shepherdOf, topo.NumNodes())
	s.shepherdOf = shepherdOf
	for n := range shepherdOf {
		shepherdOf[n] = -1
	}
	nodes := s.nodes[:0]
	for _, c := range p.Active {
		n := topo.NodeOfCore(c)
		if shepherdOf[n] < 0 {
			shepherdOf[n] = c
			nodes = append(nodes, n)
		}
	}
	s.nodes = nodes
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		ni := t * len(nodes) / spec.Tasks
		if ni >= len(nodes) {
			ni = len(nodes) - 1
		}
		p.Place = append(p.Place, taskrt.TaskPlacement{
			Lo: lo, Hi: hi, Core: shepherdOf[nodes[ni]],
		})
	}
	return p
}

// Observe implements taskrt.Scheduler; shepherds keep no state.
func (s *Shepherd) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

var _ taskrt.Scheduler = (*Shepherd)(nil)
