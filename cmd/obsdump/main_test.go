package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/results"
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

// TestCoRunCellViews: a co-run file lists its co-run cells after the solo
// cells as CG+FT/<kind>, and the perfetto view of one is chrometrace.Write
// of that cell's trace and rep-0 decisions.
func TestCoRunCellViews(t *testing.T) {
	cfg := harness.DefaultConfig()
	cfg.Class, cfg.Reps, cfg.Topo = workloads.ClassTest, 2, topology.SmallTest()
	cfg.Metrics, cfg.TraceDecisions, cfg.TraceTasks = true, true, true
	cfg.Multi = &harness.CoRun{Benches: []string{"CG", "FT"}, ArrivalSpreadSec: 0.05}
	mm, err := harness.RunMulti([]harness.Kind{harness.KindBaseline, harness.KindILAN}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := results.FromMulti(mm, cfg, "").Write(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := results.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, v := range views(file) {
		names = append(names, v.Name)
	}
	want := []string{"CG/baseline", "CG/ilan", "FT/baseline", "FT/ilan", "CG+FT/baseline", "CG+FT/ilan"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("views %v, want %v", names, want)
	}
	v, ok := findView(file, "CG+FT/ilan")
	if !ok || v.Trace == nil || v.Obs == nil {
		t.Fatalf("CG+FT/ilan: found %v, view %+v", ok, v)
	}
	var got, ref bytes.Buffer
	if err := writePerfetto(&got, v); err != nil {
		t.Fatal(err)
	}
	cell := mm.Cells[harness.KindILAN]
	if err := chrometrace.Write(&ref, cell.TaskTrace(), cell.Samples[0].Obs.Decisions, chrometrace.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("perfetto view of CG+FT/ilan differs from chrometrace.Write of the cell (%d against %d bytes)",
			got.Len(), ref.Len())
	}
}
