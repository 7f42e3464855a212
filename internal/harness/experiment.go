package harness

import (
	"fmt"
	"io"
	"slices"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Accepts is the set of optional inputs an experiment takes beyond the
// ones every run shares (scale, seed, topology, workers, metrics, cache
// and live monitor). A CLI rejects any other as a usage error rather
// than silently ignoring it.
type Accepts uint8

const (
	// AcceptIn: the report re-renders from a saved results file.
	AcceptIn Accepts = 1 << iota
	// AcceptFiles: the run writes results, Perfetto and attribution files.
	AcceptFiles
	// AcceptChart: the report has an ASCII bar chart form.
	AcceptChart
	// AcceptBench: the run takes a benchmark subset.
	AcceptBench
	// AcceptCoRun: the run takes a co-run list and arrival spread.
	AcceptCoRun
	// AcceptSweep: the run takes a machine-model parameter and its values.
	AcceptSweep
)

// Experiment is one row of the experiment table: an -exp value, the
// scheduler kinds it runs, how it runs and reports, and the optional
// inputs it accepts.
type Experiment struct {
	Name string
	// Kinds are the scheduler kinds the experiment runs, baseline first.
	// A solo or co-run campaign queues its cells in this order.
	Kinds   []Kind
	Accepts Accepts
	// Report prints the experiment's table from its outcome.
	Report func(io.Writer, *Outcome) error
	// chart draws the solo matrix as an ASCII bar chart, the visual
	// analogue of the paper's figures, once Report has checked its cells;
	// nil unless the row accepts -chart.
	chart func(io.Writer, *Matrix) error
	// run executes the experiment; nil (a matrix row) runs a solo
	// campaign of Kinds over the requested benchmarks.
	run func(*Experiment, Request) (*Outcome, error)
}

// Request is what an experiment run takes beyond its row.
type Request struct {
	Config  Config
	Benches []workloads.Benchmark
	// Param and Values are the machine-model parameter a sweep varies and
	// the values it takes.
	Param  SweepParam
	Values []float64
	// Progress, when non-nil, receives one line per queued cell, enqueued
	// oracle configuration or finished sweep point.
	Progress io.Writer
}

func (r Request) logf(format string, args ...any) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format, args...)
	}
}

func (r Request) queued(name string, k Kind) {
	r.logf("queued %-8s %-12s (%d reps, %d jobs)\n", name, k, r.Config.Reps, DefaultJobs(r.Config.Jobs))
}

// Outcome is what an experiment reports and writes: the solo matrix (for
// a co-run, its solo references) plus the co-run campaign, oracle study
// or sweep curves of the rows that produce one.
type Outcome struct {
	Matrix *Matrix
	Multi  *MultiMatrix
	Oracle []OracleResult
	Sweeps []SweepCurve
}

// SweepCurve is one benchmark's sensitivity curve.
type SweepCurve struct {
	Bench  string
	Param  SweepParam
	Points []SweepPoint
}

// matrixRows are the experiments that report from a solo matrix, in the
// order the all row prints them.
var matrixRows = []*Experiment{
	solo("fig2", reportFig2,
		speedupChart("Figure 2: ILAN speedup vs baseline (1.0 = parity)", KindILAN),
		KindBaseline, KindILAN),
	solo("fig3", reportFig3, chartThreads, KindBaseline, KindILAN),
	solo("fig4", reportFig4,
		speedupChart("Figure 4: ILAN without moldability vs baseline (1.0 = parity)", KindILANNoMold),
		KindBaseline, KindILANNoMold),
	solo("table1", reportTable1, nil, KindBaseline, KindILAN),
	solo("fig5", reportFig5, chartOverhead, KindBaseline, KindILAN),
	solo("fig6", reportFig6,
		speedupChart("Figure 6: ILAN and work-sharing vs baseline (1.0 = parity)", KindILAN, KindWorkSharing),
		KindBaseline, KindILAN, KindWorkSharing),
	// §3.4: locality via programmer annotation, with no structured
	// distribution and no interference awareness.
	extension("affinity",
		"Extension (paper §3.4): ILAN vs OpenMP affinity-clause hints, speedup vs baseline",
		"(affinity improves locality where hints exist but cannot mold or confine stealing)",
		"Extension: ILAN vs affinity hints, speedup vs baseline",
		KindILAN, KindAffinity),
	// The paper's future work: exploration cut short by measured memory
	// intensity. Compute-bound benchmarks (Matmul) recover the slowdown.
	extension("counters",
		"Extension (paper future work): counter-guided configuration selection",
		"(compute-bound loops skip the thread-count search; speedup vs baseline)",
		"Extension: counter-guided selection, speedup vs baseline",
		KindILAN, KindILANCounters),
	// §2.1's closing argument: what the PTT, moldability and strictness
	// add over pure hierarchical scheduling (shepherds, Olivier et al.).
	extension("related",
		"Related work (paper §2.1): shepherd-style hierarchy vs ILAN, speedup vs baseline",
		"(shepherds get the locality win; adaptivity on top is ILAN's contribution)",
		"Related work: shepherd hierarchy vs ILAN, speedup vs baseline",
		KindShepherd, KindILAN),
}

// experiments is the table: the matrix rows, the all row derived from
// them, and the experiments with an outcome of their own.
var experiments = append(slices.Clip(matrixRows), allOf(matrixRows),
	&Experiment{
		Name: "multi", Kinds: []Kind{KindBaseline, KindILAN},
		Accepts: AcceptIn | AcceptFiles | AcceptCoRun,
		Report:  reportMulti, run: runMulti,
	},
	&Experiment{
		// The fixed (threads, steal policy) configurations run alongside.
		Name: "oracle", Kinds: []Kind{KindBaseline, KindILAN},
		Accepts: AcceptBench,
		Report:  func(w io.Writer, o *Outcome) error { ReportOracle(w, o.Oracle); return nil },
		run:     runOracle,
	},
	&Experiment{
		Name: "sweep", Kinds: []Kind{KindBaseline, KindILAN},
		Accepts: AcceptBench | AcceptSweep,
		Report:  reportSweeps, run: runSweep,
	},
)

// Experiments returns the experiment table, one row per -exp value.
func Experiments() []*Experiment { return experiments }

// LookupExperiment returns the row of an -exp value.
func LookupExperiment(name string) (*Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Run executes the experiment.
func (e *Experiment) Run(r Request) (*Outcome, error) {
	if e.run != nil {
		return e.run(e, r)
	}
	mx, err := Run(r.Benches, e.Kinds, r.Config, r.queued)
	if err != nil {
		return nil, err
	}
	return &Outcome{Matrix: mx}, nil
}

// Render prints the experiment's report and, when asked, a blank line and
// its chart.
func (e *Experiment) Render(w io.Writer, o *Outcome, chart bool) error {
	if chart && e.Accepts&AcceptChart == 0 {
		return fmt.Errorf("harness: %s has no chart form", e.Name)
	}
	if err := e.Report(w, o); err != nil {
		return err
	}
	if !chart {
		return nil
	}
	fmt.Fprintln(w)
	return e.chart(w, o.Matrix)
}

// solo builds a matrix row. Its Report fails, before printing anything,
// on a matrix that lacks a cell of the row.
func solo(name string, report func(io.Writer, *Matrix), chart func(io.Writer, *Matrix) error, kinds ...Kind) *Experiment {
	e := &Experiment{
		Name: name, Kinds: kinds, Accepts: AcceptIn | AcceptFiles | AcceptBench, chart: chart,
		Report: func(w io.Writer, o *Outcome) error {
			for _, b := range o.Matrix.Benches {
				for _, k := range kinds {
					if o.Matrix.Cell(b, k) == nil {
						return fmt.Errorf("%s: missing %s cell for %s", name, k, b)
					}
				}
			}
			report(w, o.Matrix)
			return nil
		},
	}
	if chart != nil {
		e.Accepts |= AcceptChart
	}
	return e
}

// extension builds the matrix row of an extension experiment: one
// speedup-vs-baseline column and chart series per kind in cols.
func extension(name, title, note, chartTitle string, cols ...Kind) *Experiment {
	return solo(name, speedupColumns(title, note, cols), speedupChart(chartTitle, cols...),
		append([]Kind{KindBaseline}, cols...)...)
}

// allOf derives the all row: the union of the rows' kinds in Kind order,
// and each row's report, then each chart, followed by a blank line.
func allOf(rows []*Experiment) *Experiment {
	all := &Experiment{Name: "all", Accepts: AcceptIn | AcceptFiles | AcceptChart | AcceptBench}
	for k := Kind(0); k < numKinds; k++ {
		if slices.ContainsFunc(rows, func(e *Experiment) bool { return slices.Contains(e.Kinds, k) }) {
			all.Kinds = append(all.Kinds, k)
		}
	}
	all.Report = func(w io.Writer, o *Outcome) error {
		for _, e := range rows {
			if err := e.Report(w, o); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	all.chart = func(w io.Writer, m *Matrix) error {
		for _, e := range rows {
			if e.chart == nil {
				continue
			}
			if err := e.chart(w, m); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return all
}

func runMulti(e *Experiment, r Request) (*Outcome, error) {
	mm, err := RunMulti(e.Kinds, r.Config, func(k Kind) { r.queued(r.Config.Multi.Scenario(), k) })
	if err != nil {
		return nil, err
	}
	return &Outcome{Matrix: mm.Solo, Multi: mm}, nil
}

func reportMulti(w io.Writer, o *Outcome) error {
	if o.Multi == nil {
		return fmt.Errorf("harness: no co-run campaign to report")
	}
	return ReportMulti(w, o.Multi)
}

func runOracle(_ *Experiment, r Request) (*Outcome, error) {
	res, err := RunOracle(r.Benches, r.Config, func(bench string, threads int, full bool) {
		r.logf("oracle %-8s threads=%-3d full=%v\n", bench, threads, full)
	})
	if err != nil {
		return nil, err
	}
	return &Outcome{Oracle: res}, nil
}

// runSweep runs one sensitivity curve per benchmark, noise off so that
// the curve shows the parameter's effect alone.
func runSweep(_ *Experiment, r Request) (*Outcome, error) {
	cfg := r.Config
	cfg.Noise = machine.NoiseConfig{}
	o := &Outcome{}
	for _, b := range r.Benches {
		points, err := Sweep(b, r.Param, r.Values, cfg, func(v float64) {
			r.logf("%s %s = %g done\n", b.Name, r.Param, v)
		})
		if err != nil {
			return nil, err
		}
		o.Sweeps = append(o.Sweeps, SweepCurve{Bench: b.Name, Param: r.Param, Points: points})
	}
	return o, nil
}

func reportSweeps(w io.Writer, o *Outcome) error {
	for i, c := range o.Sweeps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		ReportSweep(w, c.Bench, c.Param, c.Points)
	}
	return nil
}
