package results

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

func campaign(t *testing.T, seed uint64) (*harness.Matrix, harness.Config) {
	t.Helper()
	cfg := harness.Config{
		Class: workloads.ClassTest,
		Reps:  2,
		Seed:  seed,
		Noise: machine.NoiseConfig{},
		Topo:  topology.SmallTest(),
	}
	b, _ := workloads.ByName("Matmul")
	mx, err := harness.Run([]workloads.Benchmark{b},
		[]harness.Kind{harness.KindBaseline, harness.KindILAN}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mx, cfg
}

func TestRoundTrip(t *testing.T) {
	mx, cfg := campaign(t, 1)
	f := FromMatrix(mx, cfg, "before")
	if len(f.Cells) != 2 {
		t.Fatalf("file has %d cells, want 2", len(f.Cells))
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Label != "before" || g.Reps != 2 || g.Class != "test" {
		t.Fatalf("metadata lost: %+v", g)
	}
	if len(Compare(f, g, 0)) != 0 {
		t.Fatal("round-tripped file differs from original")
	}
}

func TestCompareIdenticalCampaigns(t *testing.T) {
	mxA, cfg := campaign(t, 1)
	mxB, _ := campaign(t, 1)
	diffs := Compare(FromMatrix(mxA, cfg, "a"), FromMatrix(mxB, cfg, "b"), 1e-12)
	if len(diffs) != 0 {
		t.Fatalf("identical campaigns diff: %v", diffs)
	}
}

func TestCompareDetectsChange(t *testing.T) {
	mxA, cfg := campaign(t, 1)
	a := FromMatrix(mxA, cfg, "a")
	b := FromMatrix(mxA, cfg, "b")
	b.Cells[0].Times = append([]float64(nil), a.Cells[0].Times...)
	for i := range b.Cells[0].Times {
		b.Cells[0].Times[i] *= 1.5
	}
	diffs := Compare(a, b, 0.1)
	if len(diffs) != 1 {
		t.Fatalf("want 1 diff, got %v", diffs)
	}
	if diffs[0].Field != "time" || diffs[0].Rel < 0.49 || diffs[0].Rel > 0.51 {
		t.Fatalf("bad diff: %+v", diffs[0])
	}
	if !strings.Contains(diffs[0].String(), "time") {
		t.Fatalf("diff string: %s", diffs[0])
	}
}

func TestCompareToleranceSuppresses(t *testing.T) {
	mxA, cfg := campaign(t, 1)
	a := FromMatrix(mxA, cfg, "a")
	b := FromMatrix(mxA, cfg, "b")
	for i := range b.Cells[0].Times {
		b.Cells[0].Times[i] *= 1.01
	}
	if diffs := Compare(a, b, 0.05); len(diffs) != 0 {
		t.Fatalf("1%% change reported at 5%% tolerance: %v", diffs)
	}
}

// The NaN gate: a relative drift of NaN compares false against any
// tolerance, so before the gate a cell whose mean went NaN sailed through
// Compare silently. Any NaN — on either side or both — must be a diff.
func TestCompareNaNIsADiff(t *testing.T) {
	mxA, cfg := campaign(t, 1)
	base := FromMatrix(mxA, cfg, "a")
	perturb := func(mut func(f *File)) *File {
		f := FromMatrix(mxA, cfg, "b")
		mut(f)
		return f
	}
	cases := map[string]struct {
		a, b *File
	}{
		"nan in new times": {base, perturb(func(f *File) {
			f.Cells[0].Times = []float64{math.NaN()}
		})},
		"nan in old times": {perturb(func(f *File) {
			f.Cells[0].Times = []float64{math.NaN()}
		}), base},
		"nan on both sides": {
			perturb(func(f *File) { f.Cells[0].Overheads = nil }),
			perturb(func(f *File) { f.Cells[0].Overheads = nil }),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			// Huge tolerance: only the NaN gate can fire.
			diffs := Compare(tc.a, tc.b, 1e9)
			if len(diffs) == 0 {
				t.Fatal("NaN mean passed the gate silently")
			}
			for _, d := range diffs {
				if !math.IsNaN(d.Rel) {
					t.Fatalf("NaN diff carries finite Rel: %+v", d)
				}
				if !math.IsNaN(d.Old) && !math.IsNaN(d.New) {
					t.Fatalf("diff has no NaN side: %+v", d)
				}
			}
		})
	}
}

// The NaN path of a file missing overheads and weightedThreads: Read
// rejects such a cell (each per-rep array must match times), so no NaN
// mean can come from a results file. A File built in memory without them
// still yields stats.Mean(nil) = NaN, which the gate must report even
// when comparing the file against itself.
func TestCompareNaNFromFileMissingOverheads(t *testing.T) {
	doc := `{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1.5,1.6]}]}`
	if _, err := Read(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "CG/ilan") {
		t.Fatalf("Read accepted a cell without overheads or weightedThreads (err %v)", err)
	}
	f := &File{Version: 1, Cells: []Cell{{Bench: "CG", Kind: "ilan", Times: []float64{1.5, 1.6}}}}
	g := &File{Version: 1, Cells: []Cell{{Bench: "CG", Kind: "ilan", Times: []float64{1.5, 1.6}}}}
	diffs := Compare(f, g, 0.5)
	fields := map[string]bool{}
	for _, d := range diffs {
		if !math.IsNaN(d.Rel) {
			t.Fatalf("unexpected finite diff: %+v", d)
		}
		fields[d.Field] = true
	}
	if !fields["overhead"] || !fields["threads"] {
		t.Fatalf("NaN means not reported (got fields %v, want overhead and threads)", fields)
	}
}

func TestCompareMissingCell(t *testing.T) {
	mxA, cfg := campaign(t, 1)
	a := FromMatrix(mxA, cfg, "a")
	b := FromMatrix(mxA, cfg, "b")
	b.Cells = b.Cells[:1]
	diffs := Compare(a, b, 0.5)
	found := false
	for _, d := range diffs {
		if d.Missing {
			found = true
			if !strings.Contains(d.String(), "missing") {
				t.Fatalf("missing diff string: %s", d)
			}
		}
	}
	if !found {
		t.Fatal("missing cell not reported")
	}
}

// obsFile builds a one-cell file whose obs snapshot carries the given
// counters, gauge names, and histogram counts.
func obsFile(counters map[string]float64, gauges []string, hists map[string]uint64) *File {
	snap := &obs.Snapshot{Runs: 1, Counters: map[string]float64{}, Gauges: map[string]float64{}}
	for k, v := range counters {
		snap.Counters[k] = v
	}
	for _, g := range gauges {
		snap.Gauges[g] = 1
	}
	if len(hists) > 0 {
		snap.Histograms = map[string]obs.HistSnapshot{}
		for k, n := range hists {
			snap.Histograms[k] = obs.HistSnapshot{Count: n}
		}
	}
	return &File{Version: FormatVersion, Cells: []Cell{
		{Bench: "CG", Kind: "ilan", Times: []float64{1}, Obs: snap},
	}}
}

func TestCompareObsIdentical(t *testing.T) {
	a := obsFile(map[string]float64{"taskrt_steals_local_total": 10}, []string{"g"}, map[string]uint64{"h": 4})
	b := obsFile(map[string]float64{"taskrt_steals_local_total": 10}, []string{"g"}, map[string]uint64{"h": 4})
	if d := CompareObs(a, b, 0); len(d) != 0 {
		t.Fatalf("identical snapshots diffed: %v", d)
	}
}

func TestCompareObsCounterDrift(t *testing.T) {
	a := obsFile(map[string]float64{"taskrt_steals_local_total": 100}, nil, nil)
	b := obsFile(map[string]float64{"taskrt_steals_local_total": 150}, nil, nil)
	d := CompareObs(a, b, 0.1)
	if len(d) != 1 || d[0].What != "drift" || d[0].Metric != "taskrt_steals_local_total" {
		t.Fatalf("diffs = %v", d)
	}
	if d[0].Rel < 0.49 || d[0].Rel > 0.51 {
		t.Fatalf("relative drift = %g, want 0.5", d[0].Rel)
	}
	// Within tolerance: suppressed.
	if d := CompareObs(a, b, 0.6); len(d) != 0 {
		t.Fatalf("tolerated drift still reported: %v", d)
	}
}

func TestCompareObsMissingAndNewMetrics(t *testing.T) {
	a := obsFile(map[string]float64{"old_only": 1, "both": 2}, []string{"gauge_old"}, nil)
	b := obsFile(map[string]float64{"new_only": 1, "both": 2}, []string{"gauge_new"}, nil)
	d := CompareObs(a, b, 0)
	kinds := map[string]string{}
	for _, x := range d {
		kinds[x.Metric] = x.What
	}
	want := map[string]string{
		"old_only": "missing", "new_only": "new",
		"gauge_old": "missing", "gauge_new": "new",
	}
	for m, k := range want {
		if kinds[m] != k {
			t.Fatalf("metric %s: got %q, want %q (all: %v)", m, kinds[m], k, d)
		}
	}
	if len(d) != len(want) {
		t.Fatalf("diffs = %v, want %d entries", d, len(want))
	}
}

func TestCompareObsHistogramCount(t *testing.T) {
	a := obsFile(nil, nil, map[string]uint64{"taskrt_loop_elapsed_sec": 8})
	b := obsFile(nil, nil, map[string]uint64{"taskrt_loop_elapsed_sec": 4})
	d := CompareObs(a, b, 0)
	if len(d) != 1 || d[0].What != "drift" || d[0].Metric != "taskrt_loop_elapsed_sec_count" {
		t.Fatalf("diffs = %v", d)
	}
}

// CompareObs shares Compare's NaN gate: a counter gone NaN used to pass
// because the drift branch computes a NaN rel that compares false.
func TestCompareObsNaNGate(t *testing.T) {
	a := obsFile(map[string]float64{"taskrt_steals_local_total": 100}, nil, nil)
	b := obsFile(map[string]float64{"taskrt_steals_local_total": math.NaN()}, nil, nil)
	d := CompareObs(a, b, 1e9)
	if len(d) != 1 || d[0].What != "nan" {
		t.Fatalf("diffs = %v, want one nan diff", d)
	}
	if !strings.Contains(d[0].String(), "NaN") {
		t.Fatalf("nan diff string: %s", d[0])
	}
	// NaN on both sides is still broken, still a diff.
	both := CompareObs(b, b, 1e9)
	if len(both) != 1 || both[0].What != "nan" {
		t.Fatalf("both-NaN diffs = %v", both)
	}
}

func TestCompareObsSnapshotPresence(t *testing.T) {
	withObs := obsFile(map[string]float64{"c": 1}, nil, nil)
	without := &File{Version: FormatVersion, Cells: []Cell{
		{Bench: "CG", Kind: "ilan", Times: []float64{1}},
	}}
	d := CompareObs(withObs, without, 0)
	if len(d) != 1 || d[0].What != "no-obs" {
		t.Fatalf("diffs = %v", d)
	}
	// Neither side has obs: nothing to gate on.
	if d := CompareObs(without, without, 0); len(d) != 0 {
		t.Fatalf("obs-less cells diffed: %v", d)
	}
}

func TestCompareObsRealCampaign(t *testing.T) {
	mk := func() *File {
		cfg := harness.Config{
			Class: workloads.ClassTest, Reps: 2, Seed: 3,
			Noise: machine.NoiseConfig{}, Topo: topology.SmallTest(),
			Metrics: true,
		}
		b, _ := workloads.ByName("Matmul")
		mx, err := harness.Run([]workloads.Benchmark{b},
			[]harness.Kind{harness.KindILAN}, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return FromMatrix(mx, cfg, "")
	}
	a, b := mk(), mk()
	if d := CompareObs(a, b, 0); len(d) != 0 {
		t.Fatalf("identical campaigns obs-diffed: %v", d)
	}
	// Inject a counter regression and expect the gate to fire. The
	// perturbed counter must be nonzero (doubling 0 shows no drift).
	injected := false
	for k, v := range b.Cells[0].Obs.Counters {
		if v != 0 {
			b.Cells[0].Obs.Counters[k] *= 2
			injected = true
			break
		}
	}
	if !injected {
		t.Fatal("campaign produced no nonzero counters to perturb")
	}
	if d := CompareObs(a, b, 0.05); len(d) == 0 {
		t.Fatal("injected counter regression not flagged")
	}
}

func TestToMatrixRoundTrip(t *testing.T) {
	mx, cfg := campaign(t, 1)
	f := FromMatrix(mx, cfg, "x")
	back := f.ToMatrix()
	if len(back.Benches) != 1 || back.Benches[0] != "Matmul" {
		t.Fatalf("benches = %v", back.Benches)
	}
	orig := mx.Cell("Matmul", harness.KindILAN)
	got := back.Cell("Matmul", harness.KindILAN)
	if got == nil || len(got.Samples) != len(orig.Samples) {
		t.Fatal("ILAN cell lost in round trip")
	}
	for i := range got.Samples {
		if got.Samples[i].ElapsedSec != orig.Samples[i].ElapsedSec {
			t.Fatal("sample times diverged")
		}
	}
	if back.Speedup("Matmul", harness.KindILAN) != mx.Speedup("Matmul", harness.KindILAN) {
		t.Fatal("speedup diverged after round trip")
	}
}

func TestToMatrixSkipsUnknownKinds(t *testing.T) {
	f := &File{Version: 1, Cells: []Cell{
		{Bench: "X", Kind: "baseline", Times: []float64{1}, Overheads: []float64{0}, WeightedThreads: []float64{1}},
		{Bench: "X", Kind: "from-the-future", Times: []float64{1}, Overheads: []float64{0}, WeightedThreads: []float64{1}},
	}}
	mx := f.ToMatrix()
	if mx.Cell("X", harness.KindBaseline) == nil {
		t.Fatal("known kind dropped")
	}
}

func TestReadRejectsBadFiles(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad version": `{"version": 99, "cells": []}`,
		"dup cell": `{"version":1,"cells":[
			{"bench":"A","kind":"ilan","times":[1]},
			{"bench":"A","kind":"ilan","times":[1]}]}`,
		"empty samples": `{"version":1,"cells":[{"bench":"A","kind":"ilan","times":[]}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(doc)); err == nil {
				t.Error("accepted invalid file")
			}
		})
	}
}

// TestReadChecksPerRepArrayLengths: every per-rep array of a cell holds
// one value per entry of times, and every co-run program's arrays one per
// entry of elapsed. A short array used to load and be zero-filled by
// ToMatrix, so a report printed numbers the file never held.
func TestReadChecksPerRepArrayLengths(t *testing.T) {
	solo := func(overheads, threads string) string {
		return `{"version":1,"cells":[{"bench":"CG","kind":"baseline","times":[1,2]` +
			overheads + threads + `}]}`
	}
	multi := func(arrival, start, makespan string) string {
		return `{"version":1,"corun":{"benches":["CG"]},"cells":[],"multiCells":[{"kind":"ilan",` +
			`"elapsed":[1,2],"programs":[{"program":"CG","bench":"CG","arrivalSec":` + arrival +
			`,"startSec":` + start + `,"makespanSec":` + makespan + `}]}]}`
	}
	const ov, th = `,"overheads":[0.1,0.2]`, `,"weightedThreads":[8,8]`
	cases := []struct {
		name, doc, errHas string
	}{
		{"well-formed", solo(ov, th), ""},
		{"attr sidecar cell", `{"version":1,"cells":[{"bench":"CG","kind":"ilan","attr":{"runs":1,"task":{"tasks":1}}}]}`, ""},
		{"well-formed multi", multi("[0,0]", "[0,0]", "[1,2]"), ""},
		{"short overheads", solo(`,"overheads":[0.1]`, th), "CG/baseline"},
		{"long overheads", solo(`,"overheads":[0.1,0.2,0.3]`, th), "CG/baseline"},
		{"absent overheads", solo("", th), "CG/baseline"},
		{"short weightedThreads", solo(ov, `,"weightedThreads":[8]`), "CG/baseline"},
		{"short arrivalSec", multi("[0]", "[0,0]", "[1,2]"), "multi cell ilan program CG"},
		{"short startSec", multi("[0,0]", "[]", "[1,2]"), "multi cell ilan program CG"},
		{"long makespanSec", multi("[0,0]", "[0,0]", "[1,2,3]"), "multi cell ilan program CG"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Read(strings.NewReader(tc.doc))
			switch {
			case tc.errHas == "" && err != nil:
				t.Fatalf("rejected a well-formed file: %v", err)
			case tc.errHas == "":
				f.ToMatrix()
				f.ToMultiMatrix()
			case err == nil:
				t.Fatal("accepted a per-rep array of the wrong length")
			case !strings.Contains(err.Error(), tc.errHas):
				t.Fatalf("error %q does not name %q", err, tc.errHas)
			}
		})
	}
}

// TestRoundTripPreservesObs: a metrics-enabled campaign's per-cell merged
// snapshot must survive the save/load cycle byte-for-byte, so obsdump can
// inspect saved campaigns exactly as ilanexp produced them.
func TestRoundTripPreservesObs(t *testing.T) {
	cfg := harness.Config{
		Class:          workloads.ClassTest,
		Reps:           2,
		Seed:           1,
		Noise:          machine.NoiseConfig{},
		Topo:           topology.SmallTest(),
		Metrics:        true,
		TraceDecisions: true,
	}
	b, _ := workloads.ByName("Matmul")
	mx, err := harness.Run([]workloads.Benchmark{b},
		[]harness.Kind{harness.KindBaseline, harness.KindILAN}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := FromMatrix(mx, cfg, "obs")
	for i := range f.Cells {
		if f.Cells[i].Obs == nil {
			t.Fatalf("cell %s/%s lost its obs snapshot in FromMatrix", f.Cells[i].Bench, f.Cells[i].Kind)
		}
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Cells {
		var a, c bytes.Buffer
		if err := f.Cells[i].Obs.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if g.Cells[i].Obs == nil {
			t.Fatalf("cell %s/%s lost its obs snapshot in Read", f.Cells[i].Bench, f.Cells[i].Kind)
		}
		if err := g.Cells[i].Obs.WriteJSON(&c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Fatalf("cell %s/%s obs snapshot changed across the round trip", f.Cells[i].Bench, f.Cells[i].Kind)
		}
	}
	// The ILAN cell must carry a decision trace; the baseline must not.
	for i := range g.Cells {
		hasTrace := g.Cells[i].Obs.DecisionsTotal > 0
		if g.Cells[i].Kind == "ilan" && !hasTrace {
			t.Fatal("ILAN cell has no decision trace after round trip")
		}
		if g.Cells[i].Kind == "baseline" && hasTrace {
			t.Fatal("baseline cell unexpectedly carries ILAN decisions")
		}
	}
}

// TestReadRejectsImpossibleSamples: every sample must be one a run can
// produce. Times, co-run elapsed and makespans are positive; overheads,
// arrivals and starts non-negative; weighted thread counts positive. The
// reference decoder runs the same validation step.
func TestReadRejectsImpossibleSamples(t *testing.T) {
	solo := func(times, overheads, threads string) string {
		return `{"version":1,"cells":[{"bench":"CG","kind":"baseline","times":` + times +
			`,"overheads":` + overheads + `,"weightedThreads":` + threads + `}]}`
	}
	multi := func(elapsed, arrival, start, makespan string) string {
		return `{"version":1,"corun":{"benches":["CG"]},"cells":[],"multiCells":[{"kind":"ilan",` +
			`"elapsed":` + elapsed + `,"programs":[{"program":"CG","bench":"CG","arrivalSec":` + arrival +
			`,"startSec":` + start + `,"makespanSec":` + makespan + `}]}]}`
	}
	cases := []struct {
		name, doc, errHas string
	}{
		{"well-formed", solo("[0.1,0.2]", "[0,0.001]", "[18.75,64]"), ""},
		{"well-formed multi", multi("[1]", "[0]", "[0]", "[1]"), ""},
		{"negative time", solo("[-5,0.2]", "[0,0]", "[8,8]"), "CG/baseline: time 0 is -5, want > 0"},
		{"zero time", solo("[0.1,0]", "[0,0]", "[8,8]"), "time 1 is 0, want > 0"},
		{"negative overhead", solo("[0.1]", "[-1e-9]", "[8]"), "overhead 0 is -1e-09, want >= 0"},
		{"zero threads", solo("[0.1]", "[0]", "[0]"), "weightedThreads 0 is 0, want > 0"},
		{"negative threads", solo("[0.1]", "[0]", "[-8]"), "weightedThreads 0 is -8"},
		{"zero elapsed", multi("[0]", "[0]", "[0]", "[1]"), "multi cell ilan: elapsed 0 is 0, want > 0"},
		{"zero makespan", multi("[1]", "[0]", "[0]", "[0]"), "program CG: makespan 0 is 0, want > 0"},
		{"negative arrival", multi("[1]", "[-0.5]", "[0]", "[1]"), "arrival 0 is -0.5, want >= 0"},
		{"negative start", multi("[1]", "[0]", "[-1]", "[1]"), "start 0 is -1, want >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, read := range map[string]func([]byte) (*File, error){
				"Read":      func(b []byte) (*File, error) { return Read(bytes.NewReader(b)) },
				"reference": referenceRead,
			} {
				_, err := read([]byte(tc.doc))
				switch {
				case tc.errHas == "" && err != nil:
					t.Fatalf("%s rejected a well-formed file: %v", name, err)
				case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
					t.Fatalf("%s: err = %v, want one naming %q", name, err, tc.errHas)
				}
			}
		})
	}
}
