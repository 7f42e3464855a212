package ilan

import (
	"runtime"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// TestSettledLoopAllocsAreZero runs each CG loop under ILAN until its
// search settles, then measures 64 further executions: the plan comes
// from the runtime, widen and buildPlan work in scheduler-owned tables,
// and a re-derived configuration equal to the chosen one shares its
// slices, so a settled execution allocates nothing. The one growing
// structure is the per-loop execution history (History), an append-only
// log, so the window may allocate exactly once per growth of its array
// and not once more.
func TestSettledLoopAllocsAreZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mold := range []bool{true, false} {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.Zen4Vera()),
			Seed:  9,
			Noise: machine.DefaultNoise(),
			Alpha: -1,
		})
		opts := DefaultOptions()
		opts.Moldability = mold
		s := MustNew(opts)
		rt := taskrt.New(m, s, taskrt.DefaultCosts())
		cg, _ := workloads.ByName("CG")
		prog := cg.Build(m, workloads.ClassTest)
		for _, spec := range prog.Loops {
			loop := func() {
				rt.SubmitLoop(spec, nil)
				if err := m.Engine().Run(); err != nil {
					t.Fatal(err)
				}
			}
			// One execution past settling warms the runtime's pools.
			for k := 0; k < 20; k++ {
				_, phase, _ := s.ChosenConfig(spec.ID)
				loop()
				if phase == PhaseSettled {
					break
				}
			}
			if _, phase, _ := s.ChosenConfig(spec.ID); phase != PhaseSettled {
				t.Fatalf("%s loop %s: search did not settle in 20 executions", s.Name(), spec.Name)
			}
			ls := s.loops[spec.ID]
			growths := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 64; i++ {
				c := cap(ls.history)
				loop()
				if cap(ls.history) != c {
					growths++
				}
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != uint64(growths) {
				t.Errorf("%s loop %s: 64 settled executions allocate %d times, want %d (the history's growths)",
					s.Name(), spec.Name, n, growths)
			}
		}
	}
}
