package taskrt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceRecordsAllTasks(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	tr := rt.EnableTracing()
	prog := &Program{
		Name:     "p",
		Loops:    []*LoopSpec{computeLoop(1, 32, 16, 1e-5)},
		Sequence: []int{0, 0, 0},
	}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 48 {
		t.Fatalf("trace has %d task events, want 48", len(tr.Tasks))
	}
	if len(tr.Loops) != 3 {
		t.Fatalf("trace has %d loop marks, want 3", len(tr.Loops))
	}
	for _, ev := range tr.Tasks {
		if ev.EndSec <= ev.StartSec {
			t.Fatalf("non-positive task duration: %+v", ev)
		}
		if ev.Exec < 1 || ev.Exec > 3 {
			t.Fatalf("bad exec ordinal: %+v", ev)
		}
		if ev.Hi <= ev.Lo {
			t.Fatalf("bad range: %+v", ev)
		}
	}
	for _, l := range tr.Loops {
		if l.DoneSec <= l.SubmitSec || l.Threads <= 0 {
			t.Fatalf("bad loop mark: %+v", l)
		}
	}
}

func TestTraceCoversIterationsPerExecution(t *testing.T) {
	sch := &planScheduler{name: "master", plan: masterQueuePlan}
	rt := newTestRuntime(t, sch)
	tr := rt.EnableTracing()
	spec := computeLoop(1, 64, 32, 1e-5)
	rt.SubmitLoop(spec, nil)
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, 64)
	for _, ev := range tr.Tasks {
		for i := ev.Lo; i < ev.Hi; i++ {
			if covered[i] {
				t.Fatalf("iteration %d traced twice", i)
			}
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("iteration %d not traced", i)
		}
	}
	// Master-queue plan: everything except core 0's own pops is stolen.
	stolen := 0
	for _, ev := range tr.Tasks {
		if ev.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no stolen tasks traced for a master-queue plan")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	rt.SubmitLoop(computeLoop(1, 8, 8, 1e-6), nil)
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Trace() != nil {
		t.Fatal("trace present without EnableTracing")
	}
}

func TestTraceJSONL(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	tr := rt.EnableTracing()
	rt.SubmitLoop(computeLoop(1, 16, 8, 1e-6), nil)
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("JSONL has %d lines, want 9", len(lines))
	}
	for _, l := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", l, err)
		}
		if obj["kind"] != "loop" && obj["kind"] != "task" {
			t.Fatalf("unknown kind in %q", l)
		}
	}
}

func TestTraceSummary(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	tr := rt.EnableTracing()
	rt.SubmitLoop(computeLoop(1, 16, 8, 1e-6), nil)
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	s := tr.Summary(rt.Topology().NumNodes())
	if !strings.Contains(s, "8 task events") {
		t.Fatalf("summary wrong: %s", s)
	}
}
