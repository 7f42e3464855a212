package harness

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// testConfig is a small, fast campaign setup.
func testConfig() Config {
	return Config{
		Class: workloads.ClassTest,
		Reps:  2,
		Seed:  7,
		Noise: machine.NoiseConfig{Enabled: false},
		Topo:  topology.SmallTest(),
	}
}

// runCell runs one (benchmark, kind) pair as a one-cell campaign.
func runCell(b workloads.Benchmark, k Kind, cfg Config) (*Cell, error) {
	mx, err := Run([]workloads.Benchmark{b}, []Kind{k}, cfg, nil)
	if err != nil {
		return nil, err
	}
	return mx.Cell(b.Name, k), nil
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBaseline:    "baseline",
		KindILAN:        "ilan",
		KindILANNoMold:  "ilan-nomold",
		KindWorkSharing: "worksharing",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}

func TestNewSchedulerAllKinds(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		s := NewScheduler(k)
		if s == nil || s.Name() == "" {
			t.Errorf("NewScheduler(%v) bad scheduler", k)
		}
	}
}

func TestNewSchedulerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	NewScheduler(Kind(42))
}

func TestRunOneProducesSample(t *testing.T) {
	b, _ := workloads.ByName("CG")
	s, err := RunOne(b, KindBaseline, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.ElapsedSec <= 0 || s.OverheadSec <= 0 || s.Tasks == 0 {
		t.Fatalf("degenerate sample: %+v", s)
	}
	if s.WeightedThreads <= 0 {
		t.Fatalf("WeightedThreads = %g", s.WeightedThreads)
	}
}

func TestRunOneDeterministicPerRep(t *testing.T) {
	b, _ := workloads.ByName("FT")
	cfg := testConfig()
	a, err := RunOne(b, KindILAN, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunOne(b, KindILAN, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedSec != c.ElapsedSec {
		t.Fatalf("same rep diverged: %v vs %v", a.ElapsedSec, c.ElapsedSec)
	}
	d, err := RunOne(b, KindILAN, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgNoisy := cfg
	cfgNoisy.Noise = machine.DefaultNoise()
	e, err := RunOne(b, KindILAN, cfgNoisy, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunOne(b, KindILAN, cfgNoisy, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	if e.ElapsedSec == f.ElapsedSec {
		t.Fatal("different noisy reps produced identical times")
	}
}

func TestRunCellRepCount(t *testing.T) {
	b, _ := workloads.ByName("Matmul")
	cfg := testConfig()
	cfg.Reps = 3
	cell, err := runCell(b, KindWorkSharing, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(cell.Samples))
	}
	if len(cell.Times()) != 3 || len(cell.Overheads()) != 3 {
		t.Fatal("accessor lengths wrong")
	}
	if cell.MeanThreads() <= 0 {
		t.Fatal("MeanThreads not positive")
	}
}

func TestMatrixSpeedupAndOverhead(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "CG")}
	mx, err := Run(benches, []Kind{KindBaseline, KindILAN}, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := mx.Speedup("CG", KindILAN)
	if sp <= 0 {
		t.Fatalf("Speedup = %g", sp)
	}
	if mx.Speedup("CG", KindBaseline) != 1 {
		t.Fatalf("baseline self-speedup = %g, want 1", mx.Speedup("CG", KindBaseline))
	}
	if mx.OverheadRatio("CG", KindILAN) <= 0 {
		t.Fatal("OverheadRatio not positive")
	}
	if mx.Cell("CG", KindWorkSharing) != nil {
		t.Fatal("unexpected cell present")
	}
	if mx.Speedup("nope", KindILAN) != 0 {
		t.Fatal("missing bench speedup should be 0")
	}
}

func mustBench(t *testing.T, name string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

// TestKindsFor checks the kinds of the experiment table: every row runs
// the baseline first, the all row's kinds are the union of the other
// rows' kinds in Kind order, and an unknown -exp has no row.
func TestKindsFor(t *testing.T) {
	all := mustExperiment(t, "all")
	if _, ok := LookupExperiment("fig99"); ok {
		t.Fatal("unknown experiment found")
	}
	var inRow [numKinds]bool
	for _, e := range Experiments() {
		if len(e.Kinds) == 0 || e.Kinds[0] != KindBaseline {
			t.Errorf("%s: kinds %v do not start with the baseline", e.Name, e.Kinds)
		}
		if e == all {
			continue
		}
		for _, k := range e.Kinds {
			inRow[k] = true
		}
	}
	var union []Kind
	for k := Kind(0); k < numKinds; k++ {
		if inRow[k] {
			union = append(union, k)
		}
	}
	if !slices.Equal(all.Kinds, union) {
		t.Fatalf("all kinds %v, union of the other rows %v", all.Kinds, union)
	}
}

func mustExperiment(t *testing.T, name string) *Experiment {
	t.Helper()
	e, ok := LookupExperiment(name)
	if !ok {
		t.Fatalf("no %s row", name)
	}
	return e
}

// matmulMatrix runs the all row's kinds over Matmul at the test class.
func matmulMatrix(t *testing.T) *Matrix {
	t.Helper()
	mx, err := Run([]workloads.Benchmark{mustBench(t, "Matmul")}, mustExperiment(t, "all").Kinds, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// rowOutcome is the outcome a matrix row reports from: the cells of full
// for exactly the row's kinds.
func rowOutcome(e *Experiment, full *Matrix) *Outcome {
	var cells []*Cell
	for _, k := range e.Kinds {
		cells = append(cells, full.Cell("Matmul", k))
	}
	return &Outcome{Matrix: BuildMatrix(cells)}
}

// TestReportsRender checks that every matrix row's report renders from a
// matrix holding exactly its kinds, and that the all report is the rows'
// reports in table order, each followed by a blank line.
func TestReportsRender(t *testing.T) {
	full := matmulMatrix(t)
	var want bytes.Buffer
	for _, e := range matrixRows {
		var buf bytes.Buffer
		if err := e.Render(&buf, rowOutcome(e, full), false); err != nil {
			t.Fatalf("%s report: %v", e.Name, err)
		}
		if !strings.Contains(buf.String(), "Matmul") {
			t.Fatalf("%s report missing benchmark row:\n%s", e.Name, buf.String())
		}
		fmt.Fprintln(&want, buf.String())
	}
	var got bytes.Buffer
	if err := mustExperiment(t, "all").Render(&got, &Outcome{Matrix: full}, false); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("all report is not the rows' reports:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestRenderChartAllExperiments checks that a row's chart renders if and
// only if the row declares one, and that the all output with -chart is
// its report, a blank line, then the rows' charts in table order, each
// followed by a blank line.
func TestRenderChartAllExperiments(t *testing.T) {
	full := matmulMatrix(t)
	all := mustExperiment(t, "all")
	var wantCharts bytes.Buffer
	for _, e := range Experiments() {
		declared := e.chart != nil
		if (e.Accepts&AcceptChart != 0) != declared {
			t.Errorf("%s: accepts -chart %v, declares a chart %v", e.Name, !declared, declared)
		}
		if e == all {
			continue
		}
		if e.run != nil {
			if declared || e.Render(io.Discard, &Outcome{}, true) == nil {
				t.Errorf("%s: chart rendered by a row that declares none", e.Name)
			}
			continue
		}
		o := rowOutcome(e, full)
		var buf bytes.Buffer
		if err := e.Render(&buf, o, true); (err == nil) != declared {
			t.Fatalf("%s: chart rendered %v (err %v), declared %v", e.Name, err == nil, err, declared)
		}
		if !declared {
			continue
		}
		var chart bytes.Buffer
		if err := e.chart(&chart, o.Matrix); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(chart.String(), "Matmul") {
			t.Fatalf("%s chart missing benchmark row:\n%s", e.Name, chart.String())
		}
		if !strings.HasSuffix(buf.String(), "\n\n"+chart.String()) {
			t.Fatalf("%s -chart output does not end with a blank line and its chart:\n%s", e.Name, buf.String())
		}
		fmt.Fprintln(&wantCharts, chart.String())
	}
	var report, got bytes.Buffer
	if err := all.Render(&report, &Outcome{Matrix: full}, false); err != nil {
		t.Fatal(err)
	}
	if err := all.Render(&got, &Outcome{Matrix: full}, true); err != nil {
		t.Fatal(err)
	}
	if want := report.String() + "\n" + wantCharts.String(); got.String() != want {
		t.Errorf("all output is not its report then the rows' charts:\n%s\nwant:\n%s", got.String(), want)
	}
}

func TestReportFailsOnMissingCells(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	mx, err := Run(benches, []Kind{KindBaseline}, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every matrix row runs at least one kind besides the baseline.
	for _, e := range matrixRows {
		var buf bytes.Buffer
		if err := e.Report(&buf, &Outcome{Matrix: mx}); err == nil || buf.Len() > 0 {
			t.Fatalf("%s on a baseline-only matrix: err %v, printed %q", e.Name, err, buf.String())
		}
	}
}

func TestProgressCallback(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	var calls []string
	_, err := Run(benches, []Kind{KindBaseline, KindILAN}, testConfig(),
		func(bench string, k Kind) { calls = append(calls, bench+"/"+k.String()) })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("progress called %d times, want 2", len(calls))
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Reps != 30 {
		t.Errorf("Reps = %d, want 30 (paper methodology)", cfg.Reps)
	}
	if cfg.Class != workloads.ClassPaper {
		t.Error("Class != paper")
	}
	if !cfg.Noise.Enabled {
		t.Error("noise disabled in default config")
	}
	topo := cfg.Topo
	if topo.Sockets*topo.NodesPerSocket*topo.CoresPerNode != 64 {
		t.Error("default topology is not the 64-core platform")
	}
}

func TestKindFromStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildMatrixAndEachCell(t *testing.T) {
	cells := []*Cell{
		{Bench: "A", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 2}}},
		{Bench: "A", Kind: KindILAN, Samples: []RunSample{{ElapsedSec: 1}}},
		{Bench: "B", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 3}}},
	}
	mx := BuildMatrix(cells)
	if len(mx.Benches) != 2 || mx.Benches[0] != "A" || mx.Benches[1] != "B" {
		t.Fatalf("benches = %v", mx.Benches)
	}
	if sp := mx.Speedup("A", KindILAN); sp != 2 {
		t.Fatalf("speedup = %g, want 2", sp)
	}
	var visited []string
	mx.EachCell(func(c *Cell) { visited = append(visited, c.Bench+"/"+c.Kind.String()) })
	want := []string{"A/baseline", "A/ilan", "B/baseline"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestRunOneWithDisturbance(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	clean, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Disturb = &Disturb{Node: 1}
	disturbed, err := RunOne(b, KindBaseline, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.ElapsedSec <= clean.ElapsedSec {
		t.Fatalf("disturbed run (%g) not slower than clean (%g)",
			disturbed.ElapsedSec, clean.ElapsedSec)
	}
}

func TestOverheadRatioMissingCells(t *testing.T) {
	mx := BuildMatrix([]*Cell{{Bench: "A", Kind: KindBaseline,
		Samples: []RunSample{{ElapsedSec: 1, OverheadSec: 0}}}})
	if r := mx.OverheadRatio("A", KindILAN); r != 0 {
		t.Fatalf("missing cell ratio = %g, want 0", r)
	}
	// Zero baseline overhead also yields 0.
	mx2 := BuildMatrix([]*Cell{
		{Bench: "A", Kind: KindBaseline, Samples: []RunSample{{ElapsedSec: 1}}},
		{Bench: "A", Kind: KindILAN, Samples: []RunSample{{ElapsedSec: 1, OverheadSec: 1}}},
	})
	if r := mx2.OverheadRatio("A", KindILAN); r != 0 {
		t.Fatalf("zero-baseline ratio = %g, want 0", r)
	}
}

func TestOracleEfficiencyZeroILAN(t *testing.T) {
	r := &OracleResult{Best: OraclePoint{MeanSec: 1}}
	if r.Efficiency() != 0 {
		t.Fatal("zero ILAN time should give 0 efficiency")
	}
}
