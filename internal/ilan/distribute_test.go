package ilan

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Regression tests for the strict-count computation on degenerate loop
// sizes. buildPlan maps task t to active-node index t*N/T (floor); the
// per-node strict count must be derived from the spans of that same map.
// The original code inverted it with floor division (nodeStart = j*T/N),
// which is only correct when N divides T: with T=3 tasks on 4 nodes it
// computed a zero-task span for every node that actually holds one task,
// so strictCount was 0 and the node's only task went green — even at
// strict fraction 1.0, where the paper's full steal policy must still
// keep every leading task NUMA-strict.

func tinySpec(tasks int) *taskrt.LoopSpec {
	return &taskrt.LoopSpec{ID: 1, Name: "tiny", Iters: 64, Tasks: tasks,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil }}
}

// nodeSpans reproduces buildPlan's forward map independently: how many
// tasks land on each active-node index.
func nodeSpans(tasks, nNodes int) []int {
	spans := make([]int, nNodes)
	for t := 0; t < tasks; t++ {
		spans[t*nNodes/tasks]++
	}
	return spans
}

func TestBuildPlanDegenerateSizesStrictCounts(t *testing.T) {
	topo := smallTopo() // 4 nodes x 4 cores
	cases := []struct {
		name     string
		tasks    int
		fraction float64
	}{
		{"tasks below node count, all strict", 3, 1.0},
		{"tasks below node count, default fraction", 3, 0.75},
		{"two tasks on four nodes", 2, 1.0},
		{"single task", 1, 1.0},
		{"single task tiny fraction", 1, 0.01},
		{"indivisible task count, all strict", 7, 1.0},
		{"indivisible task count, default fraction", 7, 0.75},
		{"indivisible task count, near-zero fraction", 7, 0.01},
		{"exact tiling, all strict", 8, 1.0},
		{"all green", 7, 0.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(DefaultOptions())
			ls := mkState(topo, 1, nil)
			cfg := s.widen(ls, topo, 16, nil)
			cfg.StealFull = true
			spec := tinySpec(tc.tasks)
			plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg, tc.fraction)
			if err := plan.Validate(spec, topo.NumCores(), nil); err != nil {
				t.Fatal(err)
			}

			// Count strict tasks per placement core and check the leading-
			// fraction rule per node: within a node's task run, strict tasks
			// come first.
			strictPerCore := map[int]int{}
			totalPerCore := map[int]int{}
			for i, tp := range plan.Place {
				totalPerCore[tp.Core]++
				if tp.Strict {
					strictPerCore[tp.Core]++
					if i > 0 && plan.Place[i-1].Core == tp.Core && !plan.Place[i-1].Strict {
						t.Fatalf("task %d strict after green task on same core", i)
					}
				}
			}

			switch {
			case tc.fraction == 1.0:
				for i, tp := range plan.Place {
					if !tp.Strict {
						t.Errorf("fraction=1: task %d green", i)
					}
				}
			case tc.fraction == 0.0:
				for i, tp := range plan.Place {
					if tp.Strict {
						t.Errorf("fraction=0: task %d strict", i)
					}
				}
			default:
				// Every node that received tasks keeps at least one strict.
				for core, n := range totalPerCore {
					if n > 0 && strictPerCore[core] == 0 {
						t.Errorf("core %d holds %d tasks but none strict", core, n)
					}
				}
			}

			// The per-node placement spans must match the forward map.
			spans := nodeSpans(tc.tasks, len(cfg.Nodes))
			for idx, node := range cfg.Nodes {
				core := topo.PrimaryCore(node)
				if totalPerCore[core] != spans[idx] {
					t.Errorf("node %d holds %d tasks, forward map says %d",
						node, totalPerCore[core], spans[idx])
				}
			}
		})
	}
}
