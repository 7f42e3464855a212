// Command obsdump inspects the observability snapshots embedded in a saved
// campaign file (ilanexp -metrics -out). It lists which cells carry
// metrics, and renders one cell's snapshot as a human summary, Prometheus
// text, a folded-stacks profile (flamegraph input), the raw ILAN decision
// trace with a per-loop PTT footer, or JSON.
//
// Usage:
//
//	obsdump -in results.json                           # list cells
//	obsdump -in results.json -cell CG/ilan             # summary
//	obsdump -in results.json -cell CG/ilan -format prom
//	obsdump -in results.json -cell CG/ilan -format decisions
//	obsdump -in results.json -cell CG/ilan -format folded > cg.folded
//	obsdump -in results.json -cell CG/ilan perfetto > cg.trace.json
//	obsdump -in results.json -cell CG/ilan timeline    # per-node occupancy
//	obsdump -in results.json -cell CG/ilan trace > cg.jsonl
//	obsdump -in multi.json -cell CG+FT/ilan perfetto # a co-run cell
//	obsdump -in attr.json attr                         # attribution tables
//	obsdump -in attr.json -cell CG/ilan attr           # one cell, with loops
//
// A co-run file (ilanexp -exp multi) lists its solo reference cells and
// then one cell per scheduler kind of the co-run, named by the co-run's
// benchmarks joined by "+" and the kind, e.g. CG+FT/ilan; every format but
// attr renders either.
//
// The decisions format ends with the PTT's view of every loop in
// repetition 0: the configuration it ran last, the mean score of each
// thread count it explored, and what the exploration cost against the
// settled mean (computed like ilan.Scheduler.Regret).
//
// The perfetto, timeline and trace formats (any format is also spellable
// as a trailing argument, as above) read the cell's rep-0 task trace:
// perfetto converts it plus the decision trace into Chrome trace-event
// JSON for https://ui.perfetto.dev, timeline prints a trace digest and an
// ASCII per-node occupancy chart, and trace writes the raw task and loop
// events as JSON lines. The campaign must have run with ilanexp -perfetto
// (or any config that records a task trace into the -out file).
//
// The attr format renders the virtual-time attribution reports written by
// ilanexp -attr (DESIGN.md §14): without -cell, a per-scheduler table of
// every cell's task-time decomposition plus comparison bars; with -cell,
// that cell's full breakdown including per-resource interference and the
// per-loop makespan terms with each loop's mean makespan per execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/textchart"
	"github.com/ilan-sched/ilan/internal/timeline"
)

func main() {
	in := flag.String("in", "", "campaign JSON written by ilanexp -metrics -out (required)")
	cell := flag.String("cell", "", "cell to dump, as bench/kind (e.g. CG/ilan); empty lists cells")
	format := flag.String("format", "summary", "output: summary|prom|folded|decisions|json|perfetto|timeline|trace|attr")
	flag.Parse()

	// A single trailing argument is a format alias (`obsdump -in f.json
	// -cell CG/ilan perfetto`), matching how subcommand-style invocations
	// read; flag parsing stops at the first non-flag, so the alias must
	// come last.
	if flag.NArg() == 1 {
		*format = flag.Arg(0)
	} else if flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "obsdump: unexpected arguments %v\n", flag.Args()[1:])
		os.Exit(2)
	}

	// Flag-value errors exit with code 2, runtime failures with 1 — the
	// same convention as ilanexp.
	if *in == "" {
		fmt.Fprintln(os.Stderr, "obsdump: -in is required")
		os.Exit(2)
	}
	switch *format {
	case "summary", "prom", "folded", "decisions", "json", "perfetto", "timeline", "trace", "attr":
	default:
		fmt.Fprintf(os.Stderr, "obsdump: unknown format %q (valid: summary, prom, folded, decisions, json, perfetto, timeline, trace, attr)\n", *format)
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
	file, err := results.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}

	if *format == "attr" {
		// The attr view is cross-cell by design (the point is comparing
		// schedulers); -cell narrows it to one cell's full breakdown.
		if err := writeAttr(file, *cell); err != nil {
			fmt.Fprintln(os.Stderr, "obsdump:", err)
			os.Exit(1)
		}
		return
	}
	if *cell == "" {
		listCells(file)
		return
	}
	target, ok := findView(file, *cell)
	if !ok {
		fmt.Fprintf(os.Stderr, "obsdump: no cell %q in %s (try obsdump -in %s to list)\n", *cell, *in, *in)
		os.Exit(1)
	}
	switch *format {
	case "perfetto", "timeline", "trace":
		if target.Trace == nil {
			fmt.Fprintf(os.Stderr, "obsdump: cell %s has no task trace (rerun the campaign with ilanexp -perfetto, or any tracing config)\n", *cell)
			os.Exit(1)
		}
		switch *format {
		case "perfetto":
			err = writePerfetto(os.Stdout, target)
		case "timeline":
			err = writeTimeline(target.Trace)
		default:
			err = target.Trace.WriteJSONL(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsdump:", err)
			os.Exit(1)
		}
		return
	}
	snap := target.Obs
	if snap == nil {
		fmt.Fprintf(os.Stderr, "obsdump: cell %q has no observability data (rerun the campaign with -metrics)\n", *cell)
		os.Exit(1)
	}

	switch *format {
	case "prom":
		err = snap.WritePrometheus(os.Stdout)
	case "folded":
		err = snap.WriteFolded(os.Stdout)
	case "json":
		err = snap.WriteJSON(os.Stdout)
	case "decisions":
		err = writeDecisions(snap, target.Trace)
	default:
		err = writeSummary(*cell, snap)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

// view is one cell's snapshot and rep-0 task trace under the name the
// -cell flag selects it by: bench/kind for a solo cell, and for a co-run
// cell its benchmarks joined by "+" and then the kind (CG+FT/ilan). A
// co-run file's solo cells are its built-in benchmarks, whose names hold
// no "+", so the two kinds of name never meet.
type view struct {
	Name  string
	Obs   *obs.Snapshot
	Trace *taskrt.Trace
}

// views lists the solo cells, then the co-run cells.
func views(file *results.File) []view {
	var vs []view
	for _, c := range file.Cells {
		vs = append(vs, view{c.Bench + "/" + c.Kind, c.Obs, c.Trace})
	}
	for _, c := range file.MultiCells {
		vs = append(vs, view{file.CoRun.Scenario() + "/" + c.Kind, c.Obs, c.Trace})
	}
	return vs
}

// findView returns the view named name.
func findView(file *results.File, name string) (view, bool) {
	for _, v := range views(file) {
		if v.Name == name {
			return v, true
		}
	}
	return view{}, false
}

// writePerfetto converts the cell's rep-0 task trace (plus its rep-0
// decisions, when recorded) to Chrome trace-event JSON.
func writePerfetto(w io.Writer, v view) error {
	var decisions []obs.Decision
	if v.Obs != nil {
		for _, d := range v.Obs.Decisions {
			if d.Rep == 0 {
				decisions = append(decisions, d)
			}
		}
	}
	return chrometrace.Write(w, v.Trace, decisions, chrometrace.Options{})
}

func listCells(file *results.File) {
	fmt.Printf("%-24s %6s %10s %10s %10s\n", "cell", "runs", "counters", "gauges", "decisions")
	for _, v := range views(file) {
		if v.Obs == nil {
			fmt.Printf("%-24s %s\n", v.Name, "(no observability data)")
			continue
		}
		fmt.Printf("%-24s %6d %10d %10d %10d\n", v.Name,
			v.Obs.Runs, len(v.Obs.Counters), len(v.Obs.Gauges), v.Obs.DecisionsTotal)
	}
}

func writeSummary(name string, s *obs.Snapshot) error {
	fmt.Printf("cell %s: %d runs\n", name, s.Runs)
	dump := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("\n%s:\n", title)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-48s %g\n", k, m[k])
		}
	}
	dump("counters (summed over runs)", s.Counters)
	dump("gauges (averaged over runs)", s.Gauges)
	if len(s.Histograms) > 0 {
		fmt.Printf("\nhistograms:\n")
		keys := make([]string, 0, len(s.Histograms))
		for k := range s.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := s.Histograms[k]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Printf("  %-48s count=%d mean=%g p50=%g p95=%g p99=%g\n",
				k, h.Count, mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	dump("profile (virtual seconds)", s.Profile)
	if s.DecisionsTotal > 0 {
		fmt.Printf("\ndecisions: %d recorded, %d retained (use -format decisions)\n",
			s.DecisionsTotal, len(s.Decisions))
	}
	return nil
}

func writeDecisions(s *obs.Snapshot, tr *taskrt.Trace) error {
	if s.DecisionsTotal == 0 {
		return fmt.Errorf("no decision trace in this cell (rerun with -trace-decisions)")
	}
	fmt.Printf("%12s %4s %5s %3s %-10s %8s %18s %6s %14s\n",
		"t(virt s)", "rep", "loop", "k", "phase", "threads", "mask", "steal", "score")
	for _, d := range s.Decisions {
		fmt.Printf("%12.6f %4d %5d %3d %-10s %8d %#18x %6s %14.6g\n",
			d.TimeSec, d.Rep, d.LoopID, d.K, d.Phase, d.Threads, d.NodeMask, policy(d.StealFull), d.Score)
	}
	if int(s.DecisionsTotal) > len(s.Decisions) {
		fmt.Printf("(%d older decisions were dropped by the per-run ring buffer)\n",
			int(s.DecisionsTotal)-len(s.Decisions))
	}
	writePTT(s.Decisions, tr)
	return nil
}

func policy(stealFull bool) string {
	if stealFull {
		return "full"
	}
	return "strict"
}

// loopPTT is the PTT's view of one loop, rebuilt from a run's decisions.
type loopPTT struct {
	id   int
	last obs.Decision // the loop's last execution: its chosen configuration
	// explored maps each thread count tried in the explore phase to its
	// mean score.
	explored map[int]float64
	// cost is the summed excess of the unsettled executions over
	// settledMean, as ilan.Scheduler.Regret computes it; settled is false
	// when the loop never settled.
	cost, settledMean float64
	settled           bool
}

// pttOf rebuilds every loop's PTT view from repetition rep's decisions,
// in first-decision order.
func pttOf(decisions []obs.Decision, rep int) []loopPTT {
	var order []int
	byLoop := map[int][]obs.Decision{}
	for _, d := range decisions {
		if d.Rep != rep {
			continue
		}
		if _, ok := byLoop[d.LoopID]; !ok {
			order = append(order, d.LoopID)
		}
		byLoop[d.LoopID] = append(byLoop[d.LoopID], d)
	}
	out := make([]loopPTT, 0, len(order))
	for _, id := range order {
		ds := byLoop[id]
		l := loopPTT{id: id, last: ds[len(ds)-1], explored: map[int]float64{}}
		counts := map[int]int{}
		var settledN int
		for _, d := range ds {
			switch d.Phase {
			case "settled":
				l.settledMean += d.Score
				settledN++
			case "explore":
				l.explored[d.Threads] += d.Score
				counts[d.Threads]++
			}
		}
		for th, n := range counts {
			l.explored[th] /= float64(n)
		}
		if l.settled = settledN > 0; l.settled {
			l.settledMean /= float64(settledN)
			for _, d := range ds {
				if d.Phase != "settled" {
					l.cost += d.Score - l.settledMean
				}
			}
		}
		out = append(out, l)
	}
	return out
}

// writePTT prints the PTT footer for repetition 0. Loop names come from
// the task trace when the cell carries one.
func writePTT(decisions []obs.Decision, tr *taskrt.Trace) {
	loops := pttOf(decisions, 0)
	if len(loops) == 0 {
		return
	}
	names := map[int]string{}
	if tr != nil {
		for _, l := range tr.Loops {
			names[l.LoopID] = l.LoopName
		}
	}
	fmt.Printf("\nPTT per loop (rep 0; scores in the objective's unit):\n")
	for _, l := range loops {
		fmt.Printf("loop %-4d %-12s phase=%-10s chosen={threads=%d mask=%#x steal=%s}",
			l.id, names[l.id], l.last.Phase, l.last.Threads, l.last.NodeMask, policy(l.last.StealFull))
		if l.settled {
			fmt.Printf("  exploration-cost=%.6g (settled mean %.6g)", l.cost, l.settledMean)
		}
		fmt.Println()
		threads := make([]int, 0, len(l.explored))
		for th := range l.explored {
			threads = append(threads, th)
		}
		sort.Ints(threads)
		for _, th := range threads {
			fmt.Printf("    threads=%-3d mean=%.6g\n", th, l.explored[th])
		}
	}
}

// writeTimeline prints the trace digest and the per-node occupancy chart.
// Node rows come from the per-node resource samples, which cover every
// node, so nodes a molded plan left idle still show as blank rows.
func writeTimeline(tr *taskrt.Trace) error {
	nodes := 0
	for _, r := range tr.Resources {
		nodes = max(nodes, r.Node+1)
	}
	if nodes == 0 {
		return fmt.Errorf("task trace has no per-node resource samples")
	}
	fmt.Println(tr.Summary(nodes))
	fmt.Println()
	return timeline.Render(os.Stdout, tr, nodes)
}

// writeAttr renders the virtual-time attribution reports (DESIGN.md §14).
// With cellName empty it prints one row per cell carrying a report — the
// per-scheduler comparison view — followed by bars of the two terms a
// scheduler actually controls (interference stall and locality penalty).
// With a cell named it adds that cell's per-resource interference split
// and per-loop makespan decomposition.
func writeAttr(file *results.File, cellName string) error {
	var cells []*results.Cell
	for i := range file.Cells {
		c := &file.Cells[i]
		if c.Attr == nil {
			continue
		}
		if cellName != "" && c.Bench+"/"+c.Kind != cellName {
			continue
		}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		if cellName != "" {
			return fmt.Errorf("cell %q has no attribution report (rerun the campaign with ilanexp -attr)", cellName)
		}
		return fmt.Errorf("no attribution reports in this file (rerun the campaign with ilanexp -attr)")
	}

	fmt.Printf("task-time attribution (virtual seconds, summed over reps):\n\n")
	fmt.Printf("%-24s %8s %12s %12s %12s %12s %12s %12s %12s\n",
		"cell", "tasks", "elapsed", "ideal", "corespeed", "idealmem", "locality", "interf", "residual")
	for _, c := range cells {
		t := c.Attr.Task
		fmt.Printf("%-24s %8d %12.6g %12.6g %12.6g %12.6g %+12.6g %12.6g %12.3g\n",
			c.Bench+"/"+c.Kind, t.Tasks, t.ElapsedSec, t.IdealComputeSec,
			t.CoreSpeedSec, t.IdealMemorySec, t.LocalitySec, t.InterferenceSec, t.ResidualSec)
	}

	// The comparison bars plot the two signed-or-positive levers a
	// scheduler pulls: interference stall (always >= 0) and the locality
	// penalty it paid (clamped at zero for the bar; the signed value is in
	// the table — a negative locality term means multi-controller
	// spreading beat the single-local-controller counterfactual).
	rows := make([]string, 0, len(cells))
	interf := make([]float64, 0, len(cells))
	locality := make([]float64, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, c.Bench+"/"+c.Kind)
		interf = append(interf, c.Attr.Task.InterferenceSec)
		locality = append(locality, math.Max(0, c.Attr.Task.LocalitySec))
	}
	chart := textchart.Chart{
		Title: "\ninterference stall vs locality penalty:",
		Rows:  rows,
		Series: []textchart.Series{
			{Label: "interference", Values: interf},
			{Label: "locality", Values: locality},
		},
		Unit: "s",
	}
	if err := chart.Render(os.Stdout); err != nil {
		// A campaign where every term is zero (pure-compute workload) has
		// nothing to plot; the table above already says so.
		fmt.Printf("\n(no positive interference/locality terms to plot)\n")
	}

	for _, c := range cells {
		if cellName == "" {
			continue
		}
		if len(c.Attr.Interference) > 0 {
			fmt.Printf("\ninterference stall by bottleneck resource:\n")
			names := make([]string, 0, len(c.Attr.Interference))
			for n := range c.Attr.Interference {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-24s %12.6g s\n", n, c.Attr.Interference[n])
			}
		}
		if len(c.Attr.Loops) > 0 {
			fmt.Printf("\nloop makespan attribution (core-seconds; mean = makespan seconds per execution):\n\n")
			fmt.Printf("%-16s %6s %12s %12s %12s %12s %12s %12s %12s %12s %12s\n",
				"loop", "execs", "mean", "core", "select", "task", "steal", "imbal", "barrier", "qwait", "residual")
			names := make([]string, 0, len(c.Attr.Loops))
			for n := range c.Attr.Loops {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				l := c.Attr.Loops[n]
				mean := 0.0
				if l.Executions > 0 {
					mean = l.MakespanSec / float64(l.Executions)
				}
				fmt.Printf("%-16s %6d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.3g\n",
					n, l.Executions, mean, l.CoreSec, l.SelectSec, l.TaskSec, l.StealSec,
					l.ImbalanceSec, l.BarrierSec, l.QueueWaitSec, l.ResidualSec)
			}
		}
	}
	return nil
}
