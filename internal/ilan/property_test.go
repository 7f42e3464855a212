package ilan

import (
	"testing"
	"testing/quick"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestPropertyAlgorithm1Terminates drives the configuration search with
// arbitrary measured times and checks the paper-critical invariants: the
// search always finishes within a bounded number of executions, every
// explored thread count is a positive multiple of g (capped at the core
// count), and no thread count is explored twice.
func TestPropertyAlgorithm1Terminates(t *testing.T) {
	topo := topology.MustNew(topology.Zen4Vera()) // 64 cores, g = 8
	s := MustNew(DefaultOptions())
	g := s.granularity(topo)

	f := func(times []uint32) bool {
		ls := mkState(topo, 0, nil)
		explored := map[int]bool{}
		next := 0 // index into times; reused cyclically
		duration := func() float64 {
			if len(times) == 0 {
				return 1
			}
			v := times[next%len(times)]
			next++
			return 1 + float64(v%100000)/1000 // (1, 101) seconds
		}
		for k := 1; k <= 16; k++ {
			ls.k = k
			threads, finished := s.nextThreads(ls, topo)
			if threads < g || threads > topo.NumCores() || threads%g != 0 {
				return false
			}
			if finished {
				// The final configuration must be one already measured
				// (Algorithm 1 settles on the historical best).
				return explored[threads] || k <= 2
			}
			if explored[threads] {
				return false // re-exploring a measured width
			}
			explored[threads] = true
			c := &cfgStats{threads: threads, totalSec: duration(), count: 1}
			ls.tried[threads] = c
		}
		return false // did not terminate within 16 executions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlansAlwaysValid: for arbitrary loop shapes and search
// states, the plans ILAN produces always validate against the runtime's
// invariants (full tiling, active cores, etc.).
func TestPropertyPlansAlwaysValid(t *testing.T) {
	topo := topology.MustNew(topology.Zen4Vera())
	f := func(itersRaw, tasksRaw uint16, threadsRaw uint8, full bool) bool {
		iters := 64 + int(itersRaw%4000)
		tasks := 1 + int(tasksRaw)%iters
		if tasks > 512 {
			tasks = 512
		}
		threads := 8 * (1 + int(threadsRaw%8))
		s := MustNew(DefaultOptions())
		ls := mkState(topo, 1, nil)
		cfg := s.widen(ls, topo, threads, nil)
		cfg.StealFull = full
		spec := &taskrt.LoopSpec{
			ID: 1, Name: "p", Iters: iters, Tasks: tasks,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil },
		}
		plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg, s.opts.StrictFraction)
		return plan.Validate(spec, topo.NumCores(), nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWidenInvariants: widen always returns exactly `threads`
// cores, grouped into whole nodes except possibly the last, with the node
// list consistent with the core list.
func TestPropertyWidenInvariants(t *testing.T) {
	topo := topology.MustNew(topology.Zen4Vera())
	f := func(threadsRaw uint8, fastRaw uint8, hasHistory bool) bool {
		threads := 1 + int(threadsRaw)%topo.NumCores()
		s := MustNew(DefaultOptions())
		ls := mkState(topo, 1, nil)
		if hasHistory {
			fast := int(fastRaw) % topo.NumNodes()
			for n := 0; n < topo.NumNodes(); n++ {
				ls.nodeSec[n] = 2
				ls.nodeTasks[n] = 1
			}
			ls.nodeSec[fast] = 1
		}
		cfg := s.widen(ls, topo, threads, nil)
		if len(cfg.Cores) != threads {
			return false
		}
		nodeSet := map[int]bool{}
		for _, n := range cfg.Nodes {
			nodeSet[n] = true
		}
		for _, c := range cfg.Cores {
			if !nodeSet[topo.NodeOfCore(c)] {
				return false
			}
		}
		wantNodes := (threads + topo.NodeSize() - 1) / topo.NodeSize()
		return len(cfg.Nodes) == wantNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
