package ilan_test

import (
	"testing"

	ilansched "github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Integration tests: whole-system invariants that cut across packages,
// run on the full 64-core topology.

func allSchedulers() map[string]func() taskrt.Scheduler {
	return map[string]func() taskrt.Scheduler{
		"baseline":    func() taskrt.Scheduler { return &sched.Baseline{} },
		"worksharing": func() taskrt.Scheduler { return &sched.WorkSharing{} },
		"affinity":    func() taskrt.Scheduler { return &sched.Affinity{} },
		"ilan":        func() taskrt.Scheduler { return ilansched.MustNew(ilansched.DefaultOptions()) },
		"ilan-nomold": func() taskrt.Scheduler {
			o := ilansched.DefaultOptions()
			o.Moldability = false
			return ilansched.MustNew(o)
		},
		"ilan-counters": func() taskrt.Scheduler {
			o := ilansched.DefaultOptions()
			o.CounterGuided = true
			return ilansched.MustNew(o)
		},
	}
}

// TestEverySchedulerExecutesEveryIterationExactlyOnce is the core safety
// property: no scheduler may lose, duplicate, or reorder-across-barriers
// any iteration of any loop.
func TestEverySchedulerExecutesEveryIterationExactlyOnce(t *testing.T) {
	for name, mk := range allSchedulers() {
		t.Run(name, func(t *testing.T) {
			m := machine.New(machine.Config{
				Topo:  topology.MustNew(topology.Zen4Vera()),
				Seed:  3,
				Noise: machine.DefaultNoise(),
				Alpha: -1,
			})
			const iters, steps = 512, 6
			counts := make([]int, iters)
			barrierGen := 0
			spec := &taskrt.LoopSpec{
				ID: 1, Name: "check", Iters: iters, Tasks: 128,
				Demand: func(lo, hi int) (float64, []memsys.Access) {
					for i := lo; i < hi; i++ {
						counts[i]++
						if counts[i] != barrierGen+1 {
							t.Errorf("iteration %d ran %d times during execution %d",
								i, counts[i], barrierGen+1)
						}
					}
					return 5e-6 * float64(hi-lo), nil
				},
			}
			rt := taskrt.New(m, mk(), taskrt.DefaultCosts())
			prog := &taskrt.Program{Name: "check", Loops: []*taskrt.LoopSpec{spec}}
			for s := 0; s < steps; s++ {
				prog.Sequence = append(prog.Sequence, 0)
			}
			done := 0
			var submit func(i int)
			submit = func(i int) {
				if i == steps {
					return
				}
				rt.SubmitLoop(spec, func(*taskrt.LoopStats) {
					barrierGen++
					done++
					submit(i + 1)
				})
			}
			submit(0)
			if err := m.Engine().Run(); err != nil {
				t.Fatal(err)
			}
			if done != steps {
				t.Fatalf("only %d of %d loop executions completed", done, steps)
			}
			for i, c := range counts {
				if c != steps {
					t.Fatalf("iteration %d executed %d times, want %d", i, c, steps)
				}
			}
		})
	}
}

// TestStrictPolicyNeverCrossesNodes validates the paper's central
// distribution invariant end-to-end on a real benchmark: under ILAN, a
// remote steal may only occur in an execution whose configuration used
// steal_policy = full.
func TestStrictPolicyNeverCrossesNodes(t *testing.T) {
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  5,
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
	s := ilansched.MustNew(ilansched.DefaultOptions())
	rt := taskrt.New(m, s, taskrt.DefaultCosts())
	trace := rt.EnableTracing()
	b, _ := workloads.ByName("CG")
	prog := b.Build(m, workloads.ClassTest)
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}

	// Map each (loop, exec) to the steal policy its configuration used.
	fullPolicy := map[[2]int]bool{}
	for _, l := range prog.Loops {
		for _, rec := range s.History(l.ID) {
			fullPolicy[[2]int{l.ID, rec.K}] = rec.Cfg.StealFull
		}
	}
	for _, ev := range trace.Tasks {
		if ev.Remote && !fullPolicy[[2]int{ev.LoopID, ev.Exec}] {
			t.Fatalf("remote steal under strict policy: %+v", ev)
		}
	}
}

// TestSchedulersAgreeOnWorkDone: all schedulers execute the same total
// task count for the same program (they differ only in placement/timing).
func TestSchedulersAgreeOnWorkDone(t *testing.T) {
	var want uint64
	first := true
	for name, mk := range allSchedulers() {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.Zen4Vera()),
			Seed:  9,
			Noise: machine.NoiseConfig{},
			Alpha: -1,
		})
		b, _ := workloads.ByName("FT")
		rt := taskrt.New(m, mk(), taskrt.DefaultCosts())
		res, err := rt.RunProgram(b.Build(m, workloads.ClassTest))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Work-sharing repartitions iterations into one chunk per thread,
		// so compare loop executions, which must be identical, and task
		// coverage via iterations (validated elsewhere); here: loops.
		if first {
			want = uint64(res.LoopExecutions)
			first = false
		} else if uint64(res.LoopExecutions) != want {
			t.Fatalf("%s executed %d loops, others %d", name, res.LoopExecutions, want)
		}
	}
}

// TestCountersEndToEnd: the simulated performance counters agree with the
// runtime on a full-machine run of a multigrid benchmark under ILAN.
func TestCountersEndToEnd(t *testing.T) {
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  8,
		Alpha: -1,
	})
	rt := taskrt.New(m, ilansched.MustNew(ilansched.DefaultOptions()), taskrt.DefaultCosts())
	b, _ := workloads.ByName("MG")
	res, err := rt.RunProgram(b.Build(m, workloads.ClassTest))
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no progress")
	}
	ctrs := m.Counters()
	if ctrs.Tasks != res.TasksExecuted {
		t.Fatalf("counters saw %d tasks, runtime %d", ctrs.Tasks, res.TasksExecuted)
	}
	if ctrs.TotalBytes() <= 0 || ctrs.MemoryIntensity() <= 0 {
		t.Fatalf("degenerate counters: %+v", ctrs)
	}
}

// TestDeterminismAcrossFullStack: identical seeds give bit-identical
// results for every scheduler at full machine scale with noise on.
func TestDeterminismAcrossFullStack(t *testing.T) {
	for name, mk := range allSchedulers() {
		run := func() float64 {
			m := machine.New(machine.Config{
				Topo:  topology.MustNew(topology.Zen4Vera()),
				Seed:  1234,
				Noise: machine.DefaultNoise(),
				Alpha: -1,
			})
			b, _ := workloads.ByName("SP")
			rt := taskrt.New(m, mk(), taskrt.DefaultCosts())
			res, err := rt.RunProgram(b.Build(m, workloads.ClassTest))
			if err != nil {
				t.Fatal(err)
			}
			return float64(res.Elapsed)
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s: same-seed runs diverged: %v vs %v", name, a, b)
		}
	}
}

// TestILANOnLargerTopology: the scheduler generalizes beyond the paper's
// platform — on a 4-socket, 128-core machine a gather-saturated benchmark
// still molds and a compute benchmark stays wide.
func TestILANOnLargerTopology(t *testing.T) {
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.QuadSocket()),
		Seed:  6,
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
	b, _ := workloads.ByName("SP")
	s := ilansched.MustNew(ilansched.DefaultOptions())
	rt := taskrt.New(m, s, taskrt.DefaultCosts())
	// Paper scale: the test class has too few tasks to occupy (or mold on)
	// a 128-core machine.
	res, err := rt.RunProgram(b.Build(m, workloads.ClassPaper))
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedAvgThreads >= 100 {
		t.Fatalf("SP not molded on 128-core machine: %g threads", res.WeightedAvgThreads)
	}

	m2 := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.QuadSocket()),
		Seed:  6,
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
	b2, _ := workloads.ByName("Matmul")
	s2 := ilansched.MustNew(ilansched.DefaultOptions())
	rt2 := taskrt.New(m2, s2, taskrt.DefaultCosts())
	res2, err := rt2.RunProgram(b2.Build(m2, workloads.ClassTest))
	if err != nil {
		t.Fatal(err)
	}
	// Matmul at test scale has only 32 tasks, so widths beyond 32 threads
	// are equivalent; just require it not to collapse to a narrow config.
	if res2.WeightedAvgThreads < 24 {
		t.Fatalf("Matmul collapsed to %g threads on 128-core machine", res2.WeightedAvgThreads)
	}
}
