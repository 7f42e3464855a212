package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// tinyWorkload is a test-class workload small enough for unit tests: two
// solo units with every observability output on.
func tinyWorkload() *workload {
	return &workload{
		name: "tiny", class: workloads.ClassTest, reps: 1, setupReps: 1, observe: true,
		units: func() []unit { return soloUnits(byNames("CG"), pairKinds, 1) },
	}
}

func TestFailedFracCatchesAlteredReference(t *testing.T) {
	b, err := tinyWorkload().setup(7)
	if err != nil {
		t.Fatal(err)
	}
	p := b.runPass(b.runUnit, nil)

	clean := &gate{}
	clean.checkPass(b, p)
	if !clean.correct() || clean.attempted != len(b.units)+1 {
		t.Fatalf("self-checked pass: failed %d of %d: %v", clean.failed, clean.attempted, clean.problems)
	}

	ref := map[string]digest{}
	for name, d := range clean.first {
		ref[name] = d
	}
	victim := b.units[0].name
	ref[victim] = digest{}
	g := &gate{ref: ref}
	g.checkPass(b, p)
	if g.failed != 1 || g.correct() {
		t.Fatalf("altered digest of %s: failed %d of %d, want exactly 1: %v", victim, g.failed, g.attempted, g.problems)
	}
	if !strings.Contains(g.problems[0], victim) {
		t.Errorf("problem %q does not name %s", g.problems[0], victim)
	}
}

// The traced run drives units by hand through the layers; they must
// reproduce the harness's outputs exactly, observability included.
func TestHandDrivenUnitsMatchHarness(t *testing.T) {
	w := tinyWorkload()
	w.corun = &harness.CoRun{Benches: []string{"CG", "FT"}, ArrivalSpreadSec: 0.05}
	w.units = func() []unit {
		return append(soloUnits(byNames("CG"), pairKinds, 1),
			unit{name: "CG+FT/ilan/0", benches: byNames("CG", "FT"), kind: harness.KindILAN})
	}
	b, err := w.setup(7)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{}
	g.checkPass(b, b.runPass(b.runUnit, nil))
	tr := newTracer()
	tr.beginPass()
	traced := b.runPass(tr.tracedRunner(b), tr)
	g.checkPass(b, traced)
	if !g.correct() {
		t.Fatalf("hand-driven units differ from harness units: %v", g.problems)
	}
	if tr.sim.units != len(b.units) || tr.sim.ilanPlans == 0 || tr.sim.demandCalls == 0 || tr.encode == 0 {
		t.Errorf("layer statistics not collected: %+v", tr.sim)
	}
}

// smoke runs one workload for a single timed pass against the committed
// reference for seed 2025.
func smoke(t *testing.T, name string) {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	ref, err := loadReference("../reference", 2025)
	if err != nil || ref == nil || ref.Workloads[name] == nil {
		t.Fatalf("no committed reference for %s at seed 2025 (err %v)", name, err)
	}
	o := &options{seed: 2025, seconds: 1e-3, refDir: "../reference"}
	var out bytes.Buffer
	rec, err := runWorkload(o, w, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted != 2*(len(w.units())+1) {
		t.Fatalf("%s: correct=%v failed %d of %d\n%s", name, rec.Correct, rec.Failed, rec.Attempted, out.String())
	}
	for _, m := range e2eOrder {
		if v, ok := rec.Metrics[m]; !ok || !(v.Value > 0) {
			t.Errorf("%s: metric %s = %+v, want a positive value", name, m, v)
		}
	}
}

func TestSmokeComputeBound(t *testing.T) { smoke(t, "compute-bound") }

func TestSmokeCacheReplay(t *testing.T) { smoke(t, "cache-replay") }

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "github.com/ilan-sched/ilan/internal/machine.(*Machine).refresh"}, "machine"},
		{[]string{"container/heap.Fix", "github.com/ilan-sched/ilan/internal/sim.Handle.Reschedule"}, "sim"},
		{[]string{"runtime.memmove", "strconv.AppendFloat", "encoding/json.floatEncoder.encode",
			"github.com/ilan-sched/ilan/internal/results.(*File).Write"}, "encoding"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"github.com/ilan-sched/ilan/internal/taskrt.New"}, "gc"},
		{[]string{"syscall.Syscall", "os.ReadFile", "github.com/ilan-sched/ilan/internal/fsatomic.WriteFileBytes"}, "cellcache"},
		{[]string{"main.(*bench).runUnit.func1[go.shape.int]", "github.com/ilan-sched/ilan/internal/harness.runSafe"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink float64

func TestCPUSharesCountLabelledSamples(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	pprof.Do(context.Background(), passLabels, func(context.Context) {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				sink += float64(i) * 1.0000001
			}
		}
	})
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no labelled samples decoded from 300ms of labelled spinning")
	}
	// The labelled spin loop runs in this package: it is benchmark code,
	// not a named layer, so almost nothing is covered.
	if shares["covered"] > 0.5 {
		t.Errorf("covered = %v of %d samples, want the spin loop counted as benchmark code", shares["covered"], samples)
	}
}

// BENCHMARK.json declares the workloads and metrics a run reports; it
// must match what the code reports, name for name and unit for unit.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	one := []float64{1}
	m := &measurement{setup: one, walls: one, best: one, alloc: one, tasks: 1,
		tr: newTracer(), tracedWalls: one, shares: map[string]float64{}}
	same := func(kind string, specs []metricSpec, got map[string]metricValue) {
		if len(specs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run reports %d", kind, len(specs), len(got))
		}
		for _, s := range specs {
			if v, ok := got[s.Name]; !ok || v.Unit != s.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, run reports %+v", kind, s.Name, s.Unit, v)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, m.endToEnd())
	layer := m.layerMetrics()
	same("per_layer", doc.PerLayer, layer)
	listed := 0
	for _, row := range layerRows {
		for _, name := range row.metrics {
			listed++
			if _, ok := layer[name]; !ok {
				t.Errorf("layer table lists %s, which a traced run does not report", name)
			}
		}
	}
	if listed != len(layer) {
		t.Errorf("layer table lists %d metrics, a traced run reports %d", listed, len(layer))
	}
}
