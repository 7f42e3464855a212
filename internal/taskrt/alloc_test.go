package taskrt

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestSetupAllocBudget pins what building a unit's machine and runtime
// allocates on the paper platform, the set-up every campaign unit pays:
// machine.New carves its CCD caches, their LRU windows and their counters
// from one array each, and taskrt.New keeps its threads, their deques and
// the shuffle scratch in one array each, so what is left is three
// callbacks per core. Ceilings only go down.
func TestSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; set-up budgets hold for plain builds")
	}
	cfg := machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  1,
		Noise: machine.DefaultNoise(),
		Alpha: -1,
	}
	mach := testing.AllocsPerRun(10, func() { machine.New(cfg) })
	m := machine.New(cfg)
	sch := &silentScheduler{}
	rt := testing.AllocsPerRun(10, func() { New(m, sch, DefaultCosts()) })
	t.Logf("machine.New: %g allocs, taskrt.New: %g allocs", mach, rt)
	if mach > 27 {
		t.Errorf("machine.New allocates %g times, over its ceiling of 27", mach)
	}
	if rt > 197 {
		t.Errorf("taskrt.New allocates %g times, over its ceiling of 197", rt)
	}
}

// halfScheduler plans every loop on at most half the machine, the first
// free cores, so two programs run side by side.
type halfScheduler struct{}

func (halfScheduler) Name() string                            { return "half" }
func (halfScheduler) Observe(*Runtime, *LoopSpec, *LoopStats) {}
func (halfScheduler) Plan(rt *Runtime, spec *LoopSpec, occ *Occupancy) *Plan {
	n := rt.Topology().NumCores()
	p := rt.NewPlan()
	p.Mode = StealFlat
	for c := 0; c < n && len(p.Active) < n/2; c++ {
		if !occ.Held(c) {
			p.Active = append(p.Active, c)
		}
	}
	for ti := 0; ti < spec.Tasks; ti++ {
		lo, hi := spec.ChunkBounds(ti)
		p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: p.Active[ti%len(p.Active)]})
	}
	return p
}

// streamProgram is a one-loop program of the given timestep count whose
// tasks stream through a region on node 0, writing their accesses into
// one reused slice as the workload models do.
func streamProgram(m *machine.Machine, name string, id, steps int) *Program {
	const iters, bytesPerIter = 256, 64 << 10
	r := m.Memory().NewRegion(name, iters*bytesPerIter)
	r.PlaceOnNode(0)
	scratch := make([]memsys.Access, 1)
	spec := &LoopSpec{
		ID: id, Name: name, Iters: iters, Tasks: 64,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			scratch[0] = memsys.Access{Region: r, Offset: int64(lo) * bytesPerIter,
				Bytes: int64(hi-lo) * bytesPerIter, Pattern: memsys.Stream}
			return 1e-6 * float64(hi-lo), scratch
		},
	}
	return &Program{Name: name, Loops: []*LoopSpec{spec}, Sequence: make([]int, steps)}
}

// TestWorkloadAllocsIndependentOfTimesteps runs a two-program workload on
// a warmed runtime with 10 and with 40 timesteps per program: with
// executions, plans, stats and callbacks pooled, the 60 extra loop
// executions allocate nothing, so both counts are equal. Both sizes run
// once before measuring: the machine's task pool and the event table grow
// to the highest concurrency a run reaches, and noise decides when that
// happens.
func TestWorkloadAllocsIndependentOfTimesteps(t *testing.T) {
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  5,
		Noise: machine.DefaultNoise(),
		Alpha: -1,
	})
	pair := func(steps int) *Workload {
		return &Workload{Name: "pair", ArrivalSpreadSec: 1e-4, Programs: []*Program{
			streamProgram(m, "a", 1, steps),
			streamProgram(m, "b", 2, steps),
		}}
	}
	w10, w40 := pair(10), pair(40)
	rt := New(m, halfScheduler{}, DefaultCosts())
	run := func(w *Workload) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := rt.RunWorkload(w); err != nil {
				panic(err)
			}
		})
	}
	run(w40)
	run(w10)
	short, long := run(w10), run(w40)
	t.Logf("workload allocs: 10 timesteps = %g, 40 timesteps = %g", short, long)
	if short != long {
		t.Fatalf("workload allocs grew with timesteps: 10 = %g, 40 = %g (loop executions must allocate 0)",
			short, long)
	}
}
