// Package results persists experiment campaigns as JSON and compares two
// campaigns with tolerances — the regression-tracking layer: run the
// evaluation before and after a change, diff the files, and see exactly
// which (benchmark, scheduler) cells moved.
package results

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/jsonio"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// FormatVersion identifies the file schema.
const FormatVersion = 1

// File is a persisted campaign.
type File struct {
	Version int    `json:"version"`
	Label   string `json:"label,omitempty"`
	Reps    int    `json:"reps"`
	Seed    uint64 `json:"seed"`
	Class   string `json:"class"`
	Cells   []Cell `json:"cells"`
	// CoRun and MultiCells persist a multiprogrammed campaign (ilanexp
	// -exp multi): the co-run descriptor plus one cell per scheduler kind.
	// The solo reference cells ride in Cells as ordinary solo cells, so
	// slowdown-vs-solo is reconstructible from the file alone. Absent
	// (omitted) for solo campaigns — their files stay byte-identical.
	CoRun      *harness.CoRun `json:"corun,omitempty"`
	MultiCells []MultiCell    `json:"multiCells,omitempty"`
}

// MultiCell is one scheduler kind's aggregate over the co-run scenario,
// with per-repetition arrays transposed per program.
type MultiCell struct {
	Kind string `json:"kind"`
	// Elapsed is the workload's overall elapsed seconds per repetition.
	Elapsed  []float64      `json:"elapsed"`
	Programs []MultiProgram `json:"programs"`
	// Obs is the cell's merged observability snapshot (metrics campaigns
	// only); decision traces are tagged per program.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Trace is repetition 0's task-event trace (tracing campaigns only),
	// with task events tagged per program.
	Trace *taskrt.Trace `json:"trace,omitempty"`
}

// MultiProgram is one co-running program's per-repetition outcomes.
type MultiProgram struct {
	Program     string    `json:"program"`
	Bench       string    `json:"bench"`
	ArrivalSec  []float64 `json:"arrivalSec"`
	StartSec    []float64 `json:"startSec"`
	MakespanSec []float64 `json:"makespanSec"`
}

// Cell is one (benchmark, scheduler) aggregate.
type Cell struct {
	Bench           string    `json:"bench"`
	Kind            string    `json:"kind"`
	Times           []float64 `json:"times"`
	Overheads       []float64 `json:"overheads"`
	WeightedThreads []float64 `json:"weightedThreads"`
	// Obs is the cell's merged observability snapshot: counters and
	// histograms summed over the repetitions, gauges averaged, the ILAN
	// decision trace concatenated in repetition order. Present only when
	// the campaign ran with metrics enabled.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	// Trace is repetition 0's full task-event trace (deterministic for a
	// given seed regardless of Jobs). Present only when the campaign ran
	// with task tracing enabled; obsdump's perfetto exporter reads it.
	Trace *taskrt.Trace `json:"trace,omitempty"`
	// Attr is the cell's merged virtual-time attribution report (DESIGN.md
	// §14). Campaigns write it to a sidecar file (ilanexp -attr) rather
	// than into -out, so the main results file is byte-identical with and
	// without attribution; an attribution file carries Bench/Kind/Attr and
	// no samples.
	Attr *obs.AttrSnapshot `json:"attr,omitempty"`
}

// FromMatrix converts a campaign matrix into a persistable file.
func FromMatrix(mx *harness.Matrix, cfg harness.Config, label string) *File {
	f := &File{
		Version: FormatVersion,
		Label:   label,
		Reps:    cfg.Reps,
		Seed:    cfg.Seed,
		Class:   cfg.Class.String(),
	}
	mx.EachCell(func(c *harness.Cell) {
		cell := Cell{Bench: c.Bench, Kind: c.Kind.String(), Obs: c.MergedObs(),
			Trace: c.TaskTrace()}
		for _, s := range c.Samples {
			cell.Times = append(cell.Times, s.ElapsedSec)
			cell.Overheads = append(cell.Overheads, s.OverheadSec)
			cell.WeightedThreads = append(cell.WeightedThreads, s.WeightedThreads)
		}
		f.Cells = append(f.Cells, cell)
	})
	return f
}

// FromMulti converts a completed multiprogrammed campaign into a
// persistable file: the solo reference matrix becomes ordinary cells, and
// each co-run kind becomes a MultiCell with per-program repetition arrays.
func FromMulti(mm *harness.MultiMatrix, cfg harness.Config, label string) *File {
	f := FromMatrix(mm.Solo, cfg, label)
	co := mm.CoRun
	f.CoRun = &co
	for _, k := range mm.Kinds {
		c := mm.Cells[k]
		if c == nil {
			continue
		}
		mc := MultiCell{Kind: k.String(), Elapsed: c.Elapsed(),
			Obs: c.MergedObs(), Trace: c.TaskTrace()}
		if len(c.Samples) > 0 {
			for pi, p := range c.Samples[0].Programs {
				mp := MultiProgram{Program: p.Program, Bench: p.Bench}
				for _, s := range c.Samples {
					mp.ArrivalSec = append(mp.ArrivalSec, s.Programs[pi].ArrivalSec)
					mp.StartSec = append(mp.StartSec, s.Programs[pi].StartSec)
					mp.MakespanSec = append(mp.MakespanSec, s.Programs[pi].MakespanSec)
				}
				mc.Programs = append(mc.Programs, mp)
			}
		}
		f.MultiCells = append(f.MultiCells, mc)
	}
	return f
}

// ToMultiMatrix reconstructs the multiprogrammed campaign from a persisted
// file so the co-run report can be re-rendered without re-running. Returns
// nil when the file holds no multi campaign. Kinds unknown to this build
// are skipped, like ToMatrix does, and f must come from Read or FromMulti.
func (f *File) ToMultiMatrix() *harness.MultiMatrix {
	if f.CoRun == nil || len(f.MultiCells) == 0 {
		return nil
	}
	mm := &harness.MultiMatrix{
		CoRun: *f.CoRun,
		Cells: make(map[harness.Kind]*harness.MultiCell),
		Solo:  f.ToMatrix(),
	}
	for _, mc := range f.MultiCells {
		kind, ok := harness.KindFromString(mc.Kind)
		if !ok {
			continue
		}
		mm.Kinds = append(mm.Kinds, kind)
		hc := &harness.MultiCell{Kind: kind}
		for r := range mc.Elapsed {
			s := harness.MultiSample{ElapsedSec: mc.Elapsed[r]}
			for _, mp := range mc.Programs {
				s.Programs = append(s.Programs, harness.ProgramSample{Program: mp.Program, Bench: mp.Bench,
					ArrivalSec: mp.ArrivalSec[r], StartSec: mp.StartSec[r], MakespanSec: mp.MakespanSec[r]})
			}
			hc.Samples = append(hc.Samples, s)
		}
		mm.Cells[kind] = hc
	}
	return mm
}

// AttrFromMatrix converts a campaign matrix into an attribution-only file:
// one cell per (benchmark, scheduler) carrying the merged attribution
// report and no timing samples. Written as a sidecar next to -out so the
// main results file stays byte-identical whether or not the campaign ran
// with attribution enabled. Returns nil when no cell has attribution (the
// campaign ran without -attr).
func AttrFromMatrix(mx *harness.Matrix, cfg harness.Config, label string) *File {
	f := &File{
		Version: FormatVersion,
		Label:   label,
		Reps:    cfg.Reps,
		Seed:    cfg.Seed,
		Class:   cfg.Class.String(),
	}
	any := false
	mx.EachCell(func(c *harness.Cell) {
		cell := Cell{Bench: c.Bench, Kind: c.Kind.String(), Attr: c.MergedAttr()}
		if cell.Attr != nil {
			any = true
		}
		f.Cells = append(f.Cells, cell)
	})
	if !any {
		return nil
	}
	return f
}

// Write serializes the file as indented JSON, the bytes json.Encoder with
// SetIndent("", "  ") writes (codec.go). A NaN or infinite sample is an
// error, and then nothing is written.
func (f *File) Write(w io.Writer) error {
	jw := jsonio.NewWriter(true)
	jw.Grow(sizeHint(f))
	encodeFile(jw, f)
	if err := jw.Err(); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	jw.Newline()
	_, err := w.Write(jw.Bytes())
	return err
}

// Read parses and validates a results file.
func Read(r io.Reader) (*File, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	f, err := decodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// validate rejects a decoded file that no campaign writes: another format
// version, a cell named twice, per-rep arrays of unequal length, samples
// no run can produce (a non-positive time, elapsed, makespan or thread
// count, a negative overhead, arrival or start), and task traces a view
// would index out of range.
func (f *File) validate() error {
	if f.Version != FormatVersion {
		return fmt.Errorf("results: unsupported version %d (want %d)", f.Version, FormatVersion)
	}
	seen := map[string]bool{}
	for _, c := range f.Cells {
		key := c.Bench + "/" + c.Kind
		if seen[key] {
			return fmt.Errorf("results: duplicate cell %s", key)
		}
		seen[key] = true
		// Attribution sidecar files carry report-only cells; everything
		// else must have at least one timing sample.
		if len(c.Times) == 0 && c.Attr == nil {
			return fmt.Errorf("results: cell %s has no samples", key)
		}
		// Every per-rep array holds one value per rep (a sidecar cell
		// carries none of them).
		if n := len(c.Times); len(c.Overheads) != n || len(c.WeightedThreads) != n {
			return fmt.Errorf("results: cell %s has %d times but %d overheads and %d weightedThreads",
				key, n, len(c.Overheads), len(c.WeightedThreads))
		}
		if err := cmp.Or(checkRange("time", c.Times, true), checkRange("overhead", c.Overheads, false),
			checkRange("weightedThreads", c.WeightedThreads, true), checkTrace(c.Trace)); err != nil {
			return fmt.Errorf("results: cell %s: %w", key, err)
		}
	}
	if len(f.MultiCells) > 0 && f.CoRun == nil {
		return fmt.Errorf("results: multi cells without a co-run descriptor")
	}
	seenMulti := map[string]bool{}
	for _, c := range f.MultiCells {
		if seenMulti[c.Kind] {
			return fmt.Errorf("results: duplicate multi cell %s", c.Kind)
		}
		seenMulti[c.Kind] = true
		if len(c.Elapsed) == 0 {
			return fmt.Errorf("results: multi cell %s has no samples", c.Kind)
		}
		for _, p := range c.Programs {
			if n := len(c.Elapsed); len(p.ArrivalSec) != n || len(p.StartSec) != n || len(p.MakespanSec) != n {
				return fmt.Errorf("results: multi cell %s program %s has %d/%d/%d arrival/start/makespan values for %d reps",
					c.Kind, p.Program, len(p.ArrivalSec), len(p.StartSec), len(p.MakespanSec), n)
			}
			if err := cmp.Or(checkRange("arrival", p.ArrivalSec, false), checkRange("start", p.StartSec, false),
				checkRange("makespan", p.MakespanSec, true)); err != nil {
				return fmt.Errorf("results: multi cell %s program %s: %w", c.Kind, p.Program, err)
			}
		}
		if err := cmp.Or(checkRange("elapsed", c.Elapsed, true), checkTrace(c.Trace)); err != nil {
			return fmt.Errorf("results: multi cell %s: %w", c.Kind, err)
		}
	}
	return nil
}

// checkRange returns the error for the first sample of vs outside its
// range: above zero when positive is set, else at or above zero.
func checkRange(name string, vs []float64, positive bool) error {
	for i, v := range vs {
		if positive && !(v > 0) {
			return fmt.Errorf("%s %d is %g, want > 0", name, i, v)
		}
		if !positive && !(v >= 0) {
			return fmt.Errorf("%s %d is %g, want >= 0", name, i, v)
		}
	}
	return nil
}

// checkTrace returns the error for a task trace that a view would index
// out of range or draw from nowhere: a task on a negative node or core, a
// steal from a core below -1 (none), a task ending before it starts, a
// resource sample on a negative node, or, when the trace has resource
// samples, a task on a node they do not cover (the timeline sizes its node
// rows from them). It reads every event once and allocates nothing unless
// it fails.
func checkTrace(tr *taskrt.Trace) error {
	if tr == nil {
		return nil
	}
	nodes := 0
	for i, r := range tr.Resources {
		if r.Node < 0 {
			return fmt.Errorf("trace resource sample %d is on node %d", i, r.Node)
		}
		nodes = max(nodes, r.Node+1)
	}
	for i := range tr.Tasks {
		ev := &tr.Tasks[i]
		if ev.Node < 0 || ev.Core < 0 || ev.FromCore < -1 || ev.StartSec > ev.EndSec || nodes > 0 && ev.Node >= nodes {
			return fmt.Errorf("trace task %d (node %d, core %d, from core %d, %g-%g s) is out of range for %d sampled nodes",
				i, ev.Node, ev.Core, ev.FromCore, ev.StartSec, ev.EndSec, nodes)
		}
	}
	return nil
}

// ToMatrix reconstructs a harness matrix from a persisted campaign so that
// reports and charts can be re-rendered without re-running experiments.
// Cells whose kind name is unknown to this build are skipped, and so are
// cells without timing samples (an attribution sidecar's cells): a report
// over them would print NaN means. A sidecar therefore yields an empty
// matrix. f must come from Read or FromMatrix, which guarantee one value
// per rep in every per-rep array.
func (f *File) ToMatrix() *harness.Matrix {
	var cells []*harness.Cell
	for _, c := range f.Cells {
		kind, ok := harness.KindFromString(c.Kind)
		if !ok || len(c.Times) == 0 {
			continue
		}
		hc := &harness.Cell{Bench: c.Bench, Kind: kind}
		for i := range c.Times {
			hc.Samples = append(hc.Samples, harness.RunSample{ElapsedSec: c.Times[i],
				OverheadSec: c.Overheads[i], WeightedThreads: c.WeightedThreads[i]})
		}
		cells = append(cells, hc)
	}
	return harness.BuildMatrix(cells)
}

// Diff is one cell-level discrepancy between two campaigns.
type Diff struct {
	Bench string
	Kind  string
	// Field is "time", "overhead", or "threads".
	Field string
	// Old and New are the compared means; Rel the relative change.
	Old, New, Rel float64
	// Missing marks cells present in only one file.
	Missing bool
}

// String renders the diff on one line.
func (d Diff) String() string {
	if d.Missing {
		return fmt.Sprintf("%-8s %-14s missing from one file", d.Bench, d.Kind)
	}
	return fmt.Sprintf("%-8s %-14s %-8s %12.6g -> %12.6g (%+.2f%%)",
		d.Bench, d.Kind, d.Field, d.Old, d.New, 100*d.Rel)
}

// Compare reports cells whose mean time, overhead, or thread count moved
// by more than tol (relative). Cells missing from either file are always
// reported.
func Compare(a, b *File, tol float64) []Diff {
	ia, ib := cellIndex(a), cellIndex(b)
	var diffs []Diff
	for _, k := range unionKeys(ia, ib) {
		ca, cb := ia[k], ib[k]
		if ca == nil || cb == nil {
			ref := ca
			if ref == nil {
				ref = cb
			}
			diffs = append(diffs, Diff{Bench: ref.Bench, Kind: ref.Kind, Missing: true})
			continue
		}
		check := func(field string, oldV, newV float64) {
			// NaN is never within tolerance: rel would be NaN and
			// `NaN > tol` is false, so a cell whose mean went NaN used to
			// sail through the gate. Any NaN — a NaN/number mismatch or
			// NaN on both sides — is a diff: a campaign that produces NaN
			// means at all is broken and must fail the gate loudly.
			if math.IsNaN(oldV) || math.IsNaN(newV) {
				diffs = append(diffs, Diff{
					Bench: ca.Bench, Kind: ca.Kind, Field: field,
					Old: oldV, New: newV, Rel: math.NaN(),
				})
				return
			}
			if oldV == 0 && newV == 0 {
				return
			}
			rel := math.Abs(newV-oldV) / math.Max(math.Abs(oldV), 1e-300)
			if rel > tol {
				diffs = append(diffs, Diff{
					Bench: ca.Bench, Kind: ca.Kind, Field: field,
					Old: oldV, New: newV, Rel: (newV - oldV) / oldV,
				})
			}
		}
		// Attribution-only cells (sidecar files) carry no samples on
		// either side; a mean over zero samples is NaN, which would trip
		// the NaN gate on files that are merely sample-free, so the timing
		// checks run only when samples exist at all. A cell with samples
		// on exactly one side still reaches the gate (NaN vs number) —
		// that is a real file mismatch.
		if len(ca.Times) > 0 || len(cb.Times) > 0 {
			check("time", stats.Mean(ca.Times), stats.Mean(cb.Times))
			check("overhead", stats.Mean(ca.Overheads), stats.Mean(cb.Overheads))
			check("threads", stats.Mean(ca.WeightedThreads), stats.Mean(cb.WeightedThreads))
		}
	}
	return diffs
}

// ObsDiff is one telemetry-level discrepancy between two campaigns' merged
// observability snapshots.
type ObsDiff struct {
	Bench  string
	Kind   string
	Metric string
	// Old and New are the compared values; Rel the relative change (0 when
	// the metric exists on one side only).
	Old, New, Rel float64
	// Kind of discrepancy: "drift" (value moved beyond tolerance),
	// "missing" (metric present only in the old file), "new" (metric
	// present only in the new file), "nan" (either side is NaN — never
	// within tolerance), "no-obs" (one cell has no snapshot at all), or
	// "no-attr" (one cell has no attribution report).
	What string
}

// String renders the obs diff on one line.
func (d ObsDiff) String() string {
	switch d.What {
	case "missing":
		return fmt.Sprintf("%-8s %-14s obs metric %s missing from new file", d.Bench, d.Kind, d.Metric)
	case "new":
		return fmt.Sprintf("%-8s %-14s obs metric %s new in new file", d.Bench, d.Kind, d.Metric)
	case "no-obs":
		return fmt.Sprintf("%-8s %-14s obs snapshot present in only one file", d.Bench, d.Kind)
	case "no-attr":
		return fmt.Sprintf("%-8s %-14s attribution report present in only one file", d.Bench, d.Kind)
	case "nan":
		return fmt.Sprintf("%-8s %-14s obs %s is NaN (%g -> %g)",
			d.Bench, d.Kind, d.Metric, d.Old, d.New)
	default:
		return fmt.Sprintf("%-8s %-14s obs %s %12.6g -> %12.6g (%+.2f%%)",
			d.Bench, d.Kind, d.Metric, d.Old, d.New, 100*d.Rel)
	}
}

// CompareObs diffs per-cell merged observability snapshots: counter and
// histogram-count values that moved by more than tol (relative), plus
// metric names present on only one side. Gauges are compared by name only
// (their values are per-run averages and legitimately move with timing
// calibration); counters are the regression surface — a silently vanished
// steal counter or a doubled phase-transition count fails the gate even
// when wall-clock times agree. Cells missing a snapshot on exactly one
// side are reported; cells with no snapshot on either side are skipped
// (campaign ran without metrics). Attribution reports are diffed term by
// term under the same rules, except that residual terms never drift (see
// isAttrResidual).
func CompareObs(a, b *File, tol float64) []ObsDiff {
	ia, ib := cellIndex(a), cellIndex(b)
	var diffs []ObsDiff
	for _, k := range unionKeys(ia, ib) {
		ca, cb := ia[k], ib[k]
		if ca == nil || cb == nil {
			continue // Compare reports cells missing from one file
		}
		// Attribution: cells without a report on either side are skipped
		// (campaign ran without -attr); a report on one side is a diff.
		switch {
		case ca.Attr == nil && cb.Attr == nil:
		case ca.Attr == nil || cb.Attr == nil:
			diffs = append(diffs, ObsDiff{Bench: ca.Bench, Kind: ca.Kind, What: "no-attr"})
		default:
			diffs = append(diffs, diffValues(ca, attrVals(ca.Attr), attrVals(cb.Attr), tol, isAttrResidual)...)
		}
		switch {
		case ca.Obs == nil && cb.Obs == nil:
		case ca.Obs == nil || cb.Obs == nil:
			diffs = append(diffs, ObsDiff{Bench: ca.Bench, Kind: ca.Kind, What: "no-obs"})
		default:
			// Gauges participate in the name universe only (see doc comment).
			diffs = append(diffs, diffValues(ca, names(ca.Obs.Gauges), names(cb.Obs.Gauges), tol, nil)...)
			diffs = append(diffs, diffValues(ca, counterVals(ca.Obs), counterVals(cb.Obs), tol, nil)...)
		}
	}
	return diffs
}

// cellIndex maps every cell of f by its "bench/kind" key.
func cellIndex(f *File) map[string]*Cell {
	m := make(map[string]*Cell, len(f.Cells))
	for i := range f.Cells {
		m[f.Cells[i].Bench+"/"+f.Cells[i].Kind] = &f.Cells[i]
	}
	return m
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// names maps every key of m to zero, so diffValues compares presence only.
func names(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for name := range m {
		out[name] = 0
	}
	return out
}

// counterVals flattens a snapshot's counters and histogram counts.
func counterVals(s *obs.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Counters)+len(s.Histograms))
	for name, v := range s.Counters {
		m[name] = v
	}
	for name, h := range s.Histograms {
		m[name+"_count"] = float64(h.Count)
	}
	return m
}

// diffValues diffs two cells' named values in name order: a name on one
// side only is "missing" or "new"; NaN on either side is "nan" (NaN
// compares false against any tolerance, so without this case a value gone
// NaN would silently pass); a relative move beyond tol is "drift". Names
// for which exempt returns true are NaN-gated but never drift.
func diffValues(c *Cell, oldVals, newVals map[string]float64, tol float64, exempt func(string) bool) []ObsDiff {
	var diffs []ObsDiff
	for _, name := range unionKeys(oldVals, newVals) {
		oldV, inOld := oldVals[name]
		newV, inNew := newVals[name]
		d := ObsDiff{Bench: c.Bench, Kind: c.Kind, Metric: name, Old: oldV, New: newV}
		switch {
		case !inNew:
			d.What = "missing"
		case !inOld:
			d.What = "new"
		case math.IsNaN(oldV) || math.IsNaN(newV):
			d.What = "nan"
		case exempt != nil && exempt(name), oldV == 0 && newV == 0:
			continue
		default:
			scale := math.Max(math.Abs(oldV), 1e-300)
			if !(math.Abs(newV-oldV)/scale > tol) {
				continue
			}
			d.Rel, d.What = (newV-oldV)/scale, "drift"
		}
		diffs = append(diffs, d)
	}
	return diffs
}

// attrVals flattens an attribution report into named scalar terms for
// comparison: the campaign-wide task decomposition, per-resource
// interference attribution, and every per-loop makespan term.
func attrVals(a *obs.AttrSnapshot) map[string]float64 {
	m := map[string]float64{
		"attr_runs":               float64(a.Runs),
		"attr_task_tasks":         float64(a.Task.Tasks),
		"attr_task_elapsed":       a.Task.ElapsedSec,
		"attr_task_ideal_compute": a.Task.IdealComputeSec,
		"attr_task_core_speed":    a.Task.CoreSpeedSec,
		"attr_task_ideal_memory":  a.Task.IdealMemorySec,
		"attr_task_locality":      a.Task.LocalitySec,
		"attr_task_interference":  a.Task.InterferenceSec,
		"attr_task_residual":      a.Task.ResidualSec,
	}
	for name, v := range a.Interference {
		m["attr_interference["+name+"]"] = v
	}
	for name, l := range a.Loops {
		p := "attr_loop[" + name + "]_"
		m[p+"executions"] = float64(l.Executions)
		m[p+"makespan"] = l.MakespanSec
		m[p+"core"] = l.CoreSec
		m[p+"select"] = l.SelectSec
		m[p+"task"] = l.TaskSec
		m[p+"steal"] = l.StealSec
		m[p+"imbalance"] = l.ImbalanceSec
		m[p+"barrier"] = l.BarrierSec
		m[p+"queue_wait"] = l.QueueWaitSec
		m[p+"residual"] = l.ResidualSec
	}
	return m
}

// isAttrResidual reports whether the flattened attr metric is a residual
// term. Residuals are floating-point closures bounded near zero by the
// conservation invariant (DESIGN.md §14), so their *relative* drift is
// noise (1e-18 -> 3e-18 is a 200% move); they are NaN-gated but excluded
// from drift comparison.
func isAttrResidual(name string) bool {
	return len(name) >= len("_residual") && name[len(name)-len("_residual"):] == "_residual"
}
