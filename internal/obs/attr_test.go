package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleAttr() *AttrSnapshot {
	task := TaskAttr{
		Tasks:           4,
		IdealComputeSec: 1.0,
		CoreSpeedSec:    0.125,
		IdealMemorySec:  0.5,
		LocalitySec:     0.25,
		InterferenceSec: 0.375,
		ResidualSec:     0,
	}
	task.ElapsedSec = task.TermSum()
	loop := LoopAttr{
		Executions:   2,
		MakespanSec:  1.5,
		SelectSec:    0.25,
		TaskSec:      20,
		StealSec:     0.5,
		ImbalanceSec: 2,
		BarrierSec:   1.25,
		QueueWaitSec: 3,
	}
	loop.CoreSec = loop.TermSum()
	return &AttrSnapshot{
		Runs:         1,
		Task:         task,
		Loops:        map[string]LoopAttr{"cg": loop},
		Interference: map[string]float64{"node0": 0.25, "port": 0.125},
	}
}

// TestCheckConservationCatchesDroppedTerm: the checker must accept an exact
// decomposition and reject one missing any single term.
func TestCheckConservationCatchesDroppedTerm(t *testing.T) {
	s := sampleAttr()
	if err := s.CheckConservation(); err != nil {
		t.Fatalf("exact snapshot rejected: %v", err)
	}
	drop := sampleAttr()
	drop.Task.LocalitySec = 0 // dropped term → gap far above tolerance
	if err := drop.CheckConservation(); err == nil {
		t.Fatal("dropped task locality term passed conservation")
	}
	dropLoop := sampleAttr()
	la := dropLoop.Loops["cg"]
	la.ImbalanceSec = 0
	dropLoop.Loops["cg"] = la
	if err := dropLoop.CheckConservation(); err == nil {
		t.Fatal("dropped loop imbalance term passed conservation")
	}
	// Residual absorbing floating-point noise at ulp scale still passes.
	ulp := sampleAttr()
	ulp.Task.ResidualSec = 1e-13
	ulp.Task.ElapsedSec = ulp.Task.TermSum() + 1e-13
	if err := ulp.CheckConservation(); err != nil {
		t.Fatalf("ulp-scale residual rejected: %v", err)
	}
	var nilSnap *AttrSnapshot
	if err := nilSnap.CheckConservation(); err != nil {
		t.Fatalf("nil snapshot rejected: %v", err)
	}
}

// fillFields sets the i-th field of the struct v points to to base·(i+1),
// so no two fields share a value and a term dropped from a sum shows.
func fillFields(t *testing.T, v any, base float64) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		x := base * float64(i+1)
		switch f := rv.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(x)
		case reflect.Int:
			f.SetInt(int64(x))
		case reflect.Uint64:
			f.SetUint(uint64(x))
		default:
			t.Fatalf("%s.%s: unhandled kind %s", rv.Type(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// checkSummed fails unless every field of got is the sum of the same
// field of a and b.
func checkSummed(t *testing.T, what string, got, a, b any) {
	t.Helper()
	num := func(v reflect.Value) float64 {
		switch v.Kind() {
		case reflect.Int:
			return float64(v.Int())
		case reflect.Uint64:
			return float64(v.Uint())
		}
		return v.Float()
	}
	g, x, y := reflect.ValueOf(got), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < g.NumField(); i++ {
		if have, want := num(g.Field(i)), num(x.Field(i))+num(y.Field(i)); have != want {
			t.Errorf("%s: %s = %g, want %g (the sum)", what, g.Type().Field(i).Name, have, want)
		}
	}
}

// TestMergeAttrSumsEveryField: merging must add every numeric field of
// TaskAttr and LoopAttr (checked by reflection, so a term added to the
// types but not to Add fails here) and union the maps; nil inputs are
// skipped; all-nil merges to nil.
func TestMergeAttrSumsEveryField(t *testing.T) {
	var ta, tb TaskAttr
	var la, lb LoopAttr
	fillFields(t, &ta, 1)
	fillFields(t, &tb, 100)
	fillFields(t, &la, 1)
	fillFields(t, &lb, 100)
	a := &AttrSnapshot{Runs: 1, Task: ta, Loops: map[string]LoopAttr{"cg": la},
		Interference: map[string]float64{"node0": 0.25}}
	b := &AttrSnapshot{Runs: 1, Task: tb, Loops: map[string]LoopAttr{"cg": lb, "extra": lb},
		Interference: map[string]float64{"node0": 0.25, "link0-1": 0.5}}

	m := MergeAttr([]*AttrSnapshot{a, nil, b})
	if m.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", m.Runs)
	}
	checkSummed(t, "task", m.Task, ta, tb)
	checkSummed(t, "loop cg", m.Loops["cg"], la, lb)
	checkSummed(t, "loop extra", m.Loops["extra"], LoopAttr{}, lb)
	if got := m.Interference["node0"]; got != 0.5 {
		t.Fatalf("node0 interference = %g, want 0.5", got)
	}
	if got := m.Interference["link0-1"]; got != 0.5 {
		t.Fatalf("link0-1 interference = %g, want 0.5", got)
	}
	// Conservation survives merging: the laws are linear.
	if err := MergeAttr([]*AttrSnapshot{sampleAttr(), sampleAttr()}).CheckConservation(); err != nil {
		t.Fatalf("merged snapshot violates conservation: %v", err)
	}
	if MergeAttr([]*AttrSnapshot{nil, nil}) != nil {
		t.Fatal("all-nil merge produced a snapshot")
	}
}

// TestMergeAttrOrderDeterministic: merging k copies must yield the exact
// same floats regardless of how the copies were grouped, because map keys
// are folded in sorted order — the property behind the jobs=1 vs jobs=N
// byte-identity gate.
func TestMergeAttrOrderDeterministic(t *testing.T) {
	mk := func() []*AttrSnapshot {
		return []*AttrSnapshot{sampleAttr(), sampleAttr(), sampleAttr(), sampleAttr()}
	}
	flat := MergeAttr(mk())
	s := mk()
	grouped := MergeAttr([]*AttrSnapshot{MergeAttr(s[:2]), MergeAttr(s[2:])})
	jf, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := json.Marshal(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jf, jg) {
		t.Fatalf("merge grouping changed the result:\n%s\nvs\n%s", jf, jg)
	}
}

// TestAttrWritePrometheus: every attribution family reaches
// Snapshot.WritePrometheus through AttrSnapshot.Metrics, with its value,
// its type, one TYPE line, and labels in sorted order — and nothing else.
func TestAttrWritePrometheus(t *testing.T) {
	if (*AttrSnapshot)(nil).Metrics() != nil {
		t.Fatal("nil report produced series")
	}
	var buf bytes.Buffer
	if err := sampleAttr().Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	series := []struct{ kind, line string }{
		{"gauge", "ilan_attr_task_elapsed_seconds_total 2.25"},
		{"gauge", "ilan_attr_task_ideal_compute_seconds_total 1"},
		{"gauge", "ilan_attr_task_core_speed_seconds_total 0.125"},
		{"gauge", "ilan_attr_task_ideal_memory_seconds_total 0.5"},
		{"gauge", "ilan_attr_task_locality_seconds_total 0.25"},
		{"gauge", "ilan_attr_task_interference_seconds_total 0.375"},
		{"gauge", "ilan_attr_task_residual_seconds_total 0"},
		{"counter", "ilan_attr_tasks_total 4"},
		{"gauge", `ilan_attr_interference_seconds_total{resource="node0"} 0.25`},
		{"gauge", `ilan_attr_interference_seconds_total{resource="port"} 0.125`},
		{"gauge", `ilan_attr_loop_core_seconds_total{loop="cg"} 24`},
		{"gauge", `ilan_attr_loop_select_seconds_total{loop="cg"} 0.25`},
		{"gauge", `ilan_attr_loop_task_seconds_total{loop="cg"} 20`},
		{"gauge", `ilan_attr_loop_steal_seconds_total{loop="cg"} 0.5`},
		{"gauge", `ilan_attr_loop_imbalance_seconds_total{loop="cg"} 2`},
		{"gauge", `ilan_attr_loop_barrier_seconds_total{loop="cg"} 1.25`},
		{"gauge", `ilan_attr_loop_queue_wait_seconds_total{loop="cg"} 3`},
	}
	for _, s := range series {
		if !strings.Contains(out, s.line+"\n") {
			t.Errorf("exposition missing %q:\n%s", s.line, out)
		}
		fam, _, _ := strings.Cut(strings.Fields(s.line)[0], "{")
		if n := strings.Count(out, "# TYPE "+fam+" "+s.kind+"\n"); n != 1 {
			t.Errorf("family %s has %d `# TYPE ... %s` lines, want 1", fam, n, s.kind)
		}
	}
	if n := strings.Count(out, "\n") - strings.Count(out, "# TYPE"); n != len(series) {
		t.Errorf("%d sample lines, want exactly the %d attribution series:\n%s", n, len(series), out)
	}
	// node0 must precede port (sorted label order).
	if strings.Index(out, "resource=\"node0\"") > strings.Index(out, "resource=\"port\"") {
		t.Error("interference labels not in sorted order")
	}
}

// TestAttrToleranceScales: proportional at scale, floored near zero.
func TestAttrToleranceScales(t *testing.T) {
	if tol := AttrTolerance(0); tol != 1e-12 {
		t.Fatalf("floor = %g, want 1e-12", tol)
	}
	if tol := AttrTolerance(1e6); math.Abs(tol-1e-3) > 1e-10 {
		t.Fatalf("tolerance at 1e6 = %g, want ~1e-3", tol)
	}
	if AttrTolerance(-2) != AttrTolerance(2) {
		t.Fatal("tolerance not symmetric in sign")
	}
}
