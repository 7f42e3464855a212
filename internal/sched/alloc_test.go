package sched

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestPlannedLoopAllocsAreZero runs a memory-streaming loop with an
// affinity hint under every scheduler of this package on a warmed paper
// platform: each scheduler builds into a runtime-issued plan and keeps its
// per-node tables across calls, so a whole loop execution allocates
// nothing.
func TestPlannedLoopAllocsAreZero(t *testing.T) {
	for _, s := range []taskrt.Scheduler{&Baseline{}, &WorkSharing{}, &Affinity{}, &Shepherd{}} {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.Zen4Vera()),
			Seed:  3,
			Noise: machine.DefaultNoise(),
			Alpha: -1,
		})
		const iters, bytesPerIter = 512, 32 << 10
		r := m.Memory().NewRegion("data", iters*bytesPerIter)
		nodes := make([]int, m.Topology().NumNodes())
		for i := range nodes {
			nodes[i] = i
		}
		r.PlaceBlocked(nodes)
		acc := make([]memsys.Access, 1)
		spec := &taskrt.LoopSpec{
			ID: 1, Name: "stream", Iters: iters, Tasks: 256,
			Demand: func(lo, hi int) (float64, []memsys.Access) {
				acc[0] = memsys.Access{Region: r, Offset: int64(lo) * bytesPerIter,
					Bytes: int64(hi-lo) * bytesPerIter, Pattern: memsys.Stream}
				return 2e-6 * float64(hi-lo), acc
			},
			Hint: func(lo, hi int) int { return r.HomeNode(int64(lo) * bytesPerIter) },
		}
		rt := taskrt.New(m, s, taskrt.DefaultCosts())
		loop := func() {
			rt.SubmitLoop(spec, nil)
			if err := m.Engine().Run(); err != nil {
				panic(err)
			}
		}
		// One measured run of 20 executions counts every allocation in
		// them, where AllocsPerRun(20, loop) would round a few down to 0.
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 20; i++ {
				loop()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: 20 warmed loop executions allocate %g times, want 0", s.Name(), allocs)
		}
	}
}
