package main

import (
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// TestPTTMatchesScheduler: the PTT footer rebuilt from a run's decision
// trace must agree with the scheduler's own view of the same run — chosen
// configuration, explored thread means, and Regret's exploration cost.
func TestPTTMatchesScheduler(t *testing.T) {
	m := machine.New(machine.Config{
		Topo: topology.MustNew(topology.SmallTest()), Seed: 3,
		Noise: machine.DefaultNoise(), Alpha: -1,
	})
	b, _ := workloads.ByName("CG")
	prog := b.Build(m, workloads.ClassTest)
	sch := ilan.MustNew(ilan.DefaultOptions())
	rt := taskrt.New(m, sch, taskrt.DefaultCosts())
	run := obs.NewRun(obs.Options{TraceDecisions: true})
	rt.SetObs(run)
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rt.FinalizeObs()

	loops := pttOf(run.Snapshot().Decisions, 0)
	if len(loops) != len(prog.Loops) {
		t.Fatalf("footer has %d loops, program %d", len(loops), len(prog.Loops))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
	for _, l := range loops {
		cfg, phase, _ := sch.ChosenConfig(l.id)
		if l.last.Phase != phase.String() || l.last.Threads != cfg.Threads ||
			l.last.NodeMask != cfg.Mask() || l.last.StealFull != cfg.StealFull {
			t.Errorf("loop %d: footer chose %+v, scheduler %v (%s)", l.id, l.last, cfg, phase)
		}
		tried := sch.TriedConfigs(l.id)
		if len(tried) != len(l.explored) {
			t.Errorf("loop %d: explored %v, scheduler tried %v", l.id, l.explored, tried)
		}
		for th, mean := range tried {
			if !near(l.explored[th], mean) {
				t.Errorf("loop %d threads %d: footer mean %g, scheduler %g", l.id, th, l.explored[th], mean)
			}
		}
		cost, settledMean, ok := sch.Regret(l.id)
		if ok != l.settled || !near(l.cost, cost) || !near(l.settledMean, settledMean) {
			t.Errorf("loop %d: footer cost %g (mean %g, settled %v), Regret %g (mean %g, ok %v)",
				l.id, l.cost, l.settledMean, l.settled, cost, settledMean, ok)
		}
	}
}
