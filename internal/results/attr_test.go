package results

import (
	"bytes"
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/obs"
)

func attrSnap() *obs.AttrSnapshot {
	task := obs.TaskAttr{
		Tasks:           16,
		IdealComputeSec: 2,
		CoreSpeedSec:    0.25,
		IdealMemorySec:  1,
		LocalitySec:     0.5,
		InterferenceSec: 0.75,
		ResidualSec:     1e-15,
	}
	task.ElapsedSec = task.TermSum()
	loop := obs.LoopAttr{
		Executions: 3, MakespanSec: 2, SelectSec: 0.1, TaskSec: 10,
		StealSec: 0.2, ImbalanceSec: 0.4, BarrierSec: 0.3, QueueWaitSec: 1,
		ResidualSec: -2e-15,
	}
	loop.CoreSec = loop.TermSum()
	return &obs.AttrSnapshot{
		Runs:         2,
		Task:         task,
		Loops:        map[string]obs.LoopAttr{"cg": loop},
		Interference: map[string]float64{"node0": 0.5, "port": 0.25},
	}
}

func attrFile(label string, snaps ...*obs.AttrSnapshot) *File {
	f := &File{Version: FormatVersion, Label: label, Reps: 2, Seed: 1, Class: "test"}
	benches := []string{"CG", "Matmul"}
	for i, s := range snaps {
		f.Cells = append(f.Cells, Cell{Bench: benches[i%len(benches)], Kind: "ilan", Attr: s})
	}
	return f
}

// TestAttrOnlyFileRoundTrips: sidecar files carry report-only cells — no
// timing samples — and must read back cleanly, while a cell with neither
// samples nor a report stays rejected.
func TestAttrOnlyFileRoundTrips(t *testing.T) {
	f := attrFile("attr", attrSnap())
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatalf("attr-only file rejected: %v", err)
	}
	if g.Cells[0].Attr == nil || g.Cells[0].Attr.Task.Tasks != 16 {
		t.Fatalf("attribution lost in round trip: %+v", g.Cells[0].Attr)
	}
	if g.Cells[0].Attr.Loops["cg"].Executions != 3 {
		t.Fatal("loop decomposition lost in round trip")
	}
	// Timing comparison on attr-only cells must not fabricate NaN diffs.
	if diffs := Compare(f, g, 0); len(diffs) != 0 {
		t.Fatalf("attr-only self-compare produced %d timing diffs: %v", len(diffs), diffs)
	}

	empty := attrFile("bad", attrSnap())
	empty.Cells[0].Attr = nil
	buf.Reset()
	if err := empty.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("cell with neither samples nor attribution accepted")
	}
}

// TestToMatrixSkipsAttrOnlyCells: a sidecar's report-only cells carry no
// timing samples, so ToMatrix must skip them instead of turning them into
// empty cells whose reports print NaN means. A sidecar yields an empty
// matrix, which ilanexp -in rejects; a timed cell next to them still
// converts.
func TestToMatrixSkipsAttrOnlyCells(t *testing.T) {
	f := attrFile("attr", attrSnap(), attrSnap())
	if mx := f.ToMatrix(); len(mx.Benches) != 0 {
		t.Fatalf("attribution sidecar converted to matrix benches %v", mx.Benches)
	}
	f.Cells = append(f.Cells, Cell{Bench: "FT", Kind: "ilan", Times: []float64{2}})
	mx := f.ToMatrix()
	if len(mx.Benches) != 1 || mx.Cell("FT", harness.KindILAN) == nil {
		t.Fatalf("timed cell lost: benches %v", mx.Benches)
	}
}

// TestCompareObsAttrIdentical: equal reports produce no diffs.
func TestCompareObsAttrIdentical(t *testing.T) {
	if diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", attrSnap()), 0); len(diffs) != 0 {
		t.Fatalf("identical attribution compared unequal: %v", diffs)
	}
}

// TestCompareObsAttrTermDrift: a moved interference term trips the gate;
// the diff names the flattened metric.
func TestCompareObsAttrTermDrift(t *testing.T) {
	b := attrSnap()
	b.Task.InterferenceSec *= 1.5
	diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", b), 0.05)
	found := false
	for _, d := range diffs {
		if d.Metric == "attr_task_interference" && d.What == "drift" {
			found = true
			if math.Abs(d.Rel-0.5) > 1e-9 {
				t.Fatalf("relative drift = %g, want 0.5", d.Rel)
			}
		}
	}
	if !found {
		t.Fatalf("interference drift not reported: %v", diffs)
	}
	// The same move stays quiet under a 60% tolerance.
	if diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", b), 0.6); len(diffs) != 0 {
		t.Fatalf("drift within tolerance still reported: %v", diffs)
	}
}

// TestCompareObsAttrResidualExempt: residuals are floating-point closures
// near zero — huge *relative* moves between ulp-scale values are noise and
// must not trip the gate, but a residual gone NaN must.
func TestCompareObsAttrResidualExempt(t *testing.T) {
	b := attrSnap()
	b.Task.ResidualSec = 300 * b.Task.ResidualSec // 30000% relative move, ulp absolute
	la := b.Loops["cg"]
	la.ResidualSec *= -50
	b.Loops["cg"] = la
	if diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", b), 0.05); len(diffs) != 0 {
		t.Fatalf("residual noise tripped the gate: %v", diffs)
	}
	nan := attrSnap()
	nan.Task.ResidualSec = math.NaN()
	diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", nan), 0.05)
	found := false
	for _, d := range diffs {
		if d.Metric == "attr_task_residual" && d.What == "nan" {
			found = true
		}
	}
	if !found {
		t.Fatalf("NaN residual passed the gate: %v", diffs)
	}
}

// TestCompareObsAttrPresence: attribution on exactly one side is reported;
// on neither side the comparison is silent.
func TestCompareObsAttrPresence(t *testing.T) {
	one := attrFile("a", attrSnap())
	none := attrFile("b", attrSnap())
	none.Cells[0].Attr = nil
	none.Cells[0].Times = []float64{1} // keep the cell valid
	diffs := CompareObs(one, none, 0)
	if len(diffs) != 1 || diffs[0].What != "no-attr" {
		t.Fatalf("one-sided attribution: got %v, want a single no-attr diff", diffs)
	}
	if s := diffs[0].String(); s == "" {
		t.Fatal("no-attr diff renders empty")
	}
	bothNone := attrFile("c", attrSnap())
	bothNone.Cells[0].Attr = nil
	bothNone.Cells[0].Times = []float64{1}
	if diffs := CompareObs(none, bothNone, 0); len(diffs) != 0 {
		t.Fatalf("attr-less cells compared unequal: %v", diffs)
	}
}

// TestCompareObsAttrLoopTerms: per-loop terms are part of the comparison
// universe — a vanished loop shows up as missing metrics.
func TestCompareObsAttrLoopTerms(t *testing.T) {
	b := attrSnap()
	delete(b.Loops, "cg")
	diffs := CompareObs(attrFile("a", attrSnap()), attrFile("b", b), 0.05)
	missing := 0
	for _, d := range diffs {
		if d.What == "missing" {
			missing++
		}
	}
	// 10 per-loop terms flattened for loop "cg".
	if missing != 10 {
		t.Fatalf("vanished loop reported %d missing terms, want 10: %v", missing, diffs)
	}
}

// TestAttrFromMatrixNilWithoutAttr: a campaign run without attribution
// yields no sidecar file.
func TestAttrFromMatrixNilWithoutAttr(t *testing.T) {
	mx, cfg := campaign(t, 1)
	if f := AttrFromMatrix(mx, cfg, "x"); f != nil {
		t.Fatalf("AttrFromMatrix = %+v for a campaign without attribution, want nil", f)
	}
}
