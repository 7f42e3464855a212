package ilan

import (
	"math"

	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// buildPlan fills plan, an empty plan (Runtime.NewPlan), with the
// hierarchical distribution of a configuration:
//
//   - Tasks are mapped contiguously by task index onto the active nodes
//     (node i receives tasks [i*T/N, (i+1)*T/N)), preserving the adjacency
//     of loop iterations within a node — the paper's locality assumption.
//   - Every task is initially enqueued on its node's primary thread; the
//     node's other threads obtain work through intra-node stealing.
//   - Under the strict steal policy every task is NUMA-strict. Under the
//     full policy the leading StrictFraction of each node's tasks stays
//     strict (yellow) and the tail is stealable across nodes (green).
func (s *Scheduler) buildPlan(plan *taskrt.Plan, spec *taskrt.LoopSpec, topo *topology.Machine, cfg Config, strictFraction float64) *taskrt.Plan {
	plan.Active = append(plan.Active, cfg.Cores...)
	plan.Mode = taskrt.StealHierarchical
	plan.InterNodeSteal = cfg.StealFull
	plan.SelectOverheadSec = s.opts.SelectCostSec +
		s.opts.SelectPerThreadSec*float64(len(cfg.Cores)) +
		s.opts.PlacePerTaskSec*float64(spec.Tasks)

	// Primary core per active node: the lowest-numbered active core there.
	s.useTopology(topo)
	primary := s.primary
	for i := range primary {
		primary[i] = -1
	}
	for _, c := range cfg.Cores {
		n := topo.NodeOfCore(c)
		if primary[n] < 0 || c < primary[n] {
			primary[n] = c
		}
	}

	nNodes := len(cfg.Nodes)
	T := spec.Tasks
	for t := 0; t < T; t++ {
		nodeIdx := t * nNodes / T
		if nodeIdx >= nNodes {
			nodeIdx = nNodes - 1
		}
		node := cfg.Nodes[nodeIdx]
		lo, hi := spec.ChunkBounds(t)

		strict := true
		if cfg.StealFull {
			// The node's task run under the forward map t*nNodes/T is
			// [ceil(nodeIdx*T/nNodes), ceil((nodeIdx+1)*T/nNodes)). Ceiling
			// division is the exact inverse; floor division (the original
			// code) drifts whenever nNodes does not divide T and computed
			// zero-task spans for nodes that hold a task, marking their only
			// task green even at strict fraction 1.
			nodeStart := (nodeIdx*T + nNodes - 1) / nNodes
			nodeEnd := ((nodeIdx+1)*T + nNodes - 1) / nNodes
			span := nodeEnd - nodeStart
			strictCount := int(math.Round(strictFraction * float64(span)))
			// A node must keep at least one strict task: truncation on a
			// 1-task span would otherwise mark the node's only task
			// stealable, inverting the "leading fraction strict" rule.
			if strictCount < 1 && span > 0 && strictFraction > 0 {
				strictCount = 1
			}
			strict = (t - nodeStart) < strictCount
		}
		plan.Place = append(plan.Place, taskrt.TaskPlacement{
			Lo:     lo,
			Hi:     hi,
			Core:   primary[node],
			Strict: strict,
		})
	}
	return plan
}
