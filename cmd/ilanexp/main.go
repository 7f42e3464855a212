// Command ilanexp reproduces the paper's evaluation: it runs the seven
// benchmarks under the requested schedulers on the simulated 64-core Zen 4
// machine and prints the rows of the requested figure or table. Each -exp
// value is a row of the harness experiment table, which also says which
// optional flags it takes; any other is a usage error.
//
// Usage:
//
//	ilanexp -exp fig2                # Figure 2 (ILAN vs baseline speedup)
//	ilanexp -exp all -reps 30        # every figure and table, paper setup
//	ilanexp -exp all -jobs 8         # same campaign across 8 workers
//	ilanexp -exp fig6 -bench CG,FT   # subset of benchmarks
//	ilanexp -exp fig2 -bench @app.json
//	                                 # a looplang document (package looplang)
//	ilanexp -exp fig2 -class test    # reduced scale (fast smoke run)
//	ilanexp -exp sweep -class test -reps 2 -bench CG -param beta
//	                                 # sensitivity curve (DESIGN.md §5)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/fsatomic"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/obsserve"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// exitInterrupted is the exit code for a gracefully interrupted campaign
// (SIGINT): dispatch stopped, in-flight units finished and were committed
// to the cache, no -out was written. Rerunning the same command with the
// same -cache-dir resumes from the completed units. Distinct from 1
// (runtime failure) and 2 (flag error) so scripts can tell them apart.
const exitInterrupted = 3

func main() {
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "fig2", "experiment: "+strings.Join(names, "|"))
	reps := flag.Int("reps", 30, "repetitions per (benchmark, scheduler) pair")
	jobs := flag.Int("jobs", 0, "parallel workers for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	class := flag.String("class", "paper", "benchmark scale: paper|test")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all); @file runs a looplang document")
	seed := flag.Uint64("seed", 2025, "base random seed")
	quiet := flag.Bool("q", false, "suppress progress output")
	chart := flag.Bool("chart", false, "render results as ASCII bar charts")
	topo := flag.String("topo", "zen4", "machine topology: zen4|1socket|4socket|smalltest")
	disturb := flag.Int("disturb", -1, "inject a sustained external interferer on this NUMA node (dynamic-asymmetry extension)")
	out := flag.String("out", "", "also write the campaign as JSON (for resultdiff)")
	label := flag.String("label", "", "label stored in the -out file")
	in := flag.String("in", "", "render reports from a saved campaign JSON instead of running")
	metrics := flag.Bool("metrics", false, "collect observability metrics; merged per cell into the -out JSON (-exp sweep: ILAN's steal split per point)")
	traceDecisions := flag.Bool("trace-decisions", false, "record every ILAN configuration decision (implies -metrics)")
	serve := flag.String("serve", "", "serve live campaign progress over HTTP on this address (e.g. :8080 or 127.0.0.1:0)")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve monitor up this long after the campaign finishes")
	perfetto := flag.String("perfetto", "", "write rep 0's execution trace as Perfetto (Chrome trace-event) JSON to this file (implies -metrics -trace-decisions)")
	attrOut := flag.String("attr", "", "collect virtual-time attribution and write the per-cell report JSON to this file (output-neutral: -out/-perfetto bytes are identical either way)")
	corun := flag.String("corun", "CG,FT", "comma-separated benchmarks to co-run as one workload (-exp multi)")
	spread := flag.Float64("spread", 0, "spread co-run program arrivals over this many seconds (-exp multi)")
	param := flag.String("param", "beta", "machine-model parameter to vary (-exp sweep): alpha|beta|controllerbw|corebw|linkbw")
	valuesArg := flag.String("values", "0,0.0003,0.001,0.003", "comma-separated parameter values (-exp sweep)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap-allocation profile to this file at exit")
	cacheOn := flag.Bool("cache", false, "memoize per-unit results in a content-addressed on-disk cache (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "", "campaign cache directory (implies -cache; default .ilan-cache)")
	noCache := flag.Bool("no-cache", false, "disable the campaign cache even when -cache/-cache-dir is given")
	cacheMaxMB := flag.Int("cache-max-mb", 1024, "campaign cache size cap in MiB before LRU eviction (0 = unbounded)")
	flag.Parse()

	// Usage errors exit with code 2 (flag.Parse's own convention) before
	// any file is read or created and before the monitor starts; runtime
	// failures exit with 1.
	e, ok := harness.LookupExperiment(*exp)
	if !ok {
		usage("unknown experiment %q", *exp)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(e, set); err != nil {
		usage("%v", err)
	}
	if *jobs < 0 {
		usage("-jobs must be >= 0 (got %d)", *jobs)
	}
	if *reps < 1 {
		usage("-reps must be >= 1 (got %d)", *reps)
	}
	if *cacheMaxMB < 0 {
		usage("-cache-max-mb must be >= 0 (got %d)", *cacheMaxMB)
	}
	if math.IsNaN(*spread) || math.IsInf(*spread, 0) || *spread < 0 {
		usage("-spread must be finite and >= 0 (got %g)", *spread)
	}

	req := harness.Request{Config: harness.DefaultConfig(), Benches: workloads.All()}
	cfg := &req.Config
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Jobs = *jobs
	cfg.Metrics = *metrics
	cfg.TraceDecisions = *traceDecisions
	cfg.Attr = *attrOut != ""
	if *perfetto != "" {
		// The exporter needs the task trace plus the decision trace; turn
		// both on rather than failing on a missing flag combination.
		cfg.TraceTasks = true
		cfg.TraceDecisions = true
	}
	spec, ok := topology.Presets()[*topo]
	if !ok {
		usage("unknown topology %q", *topo)
	}
	cfg.Topo = spec
	// machine.DisturbNode panics on a node the topology does not have.
	if nodes := spec.Sockets * spec.NodesPerSocket; *disturb < -1 || *disturb >= nodes {
		usage("-disturb %d is neither -1 nor a node of -topo %s (0..%d)", *disturb, *topo, nodes-1)
	}
	if *disturb >= 0 {
		cfg.Disturb = &harness.Disturb{Node: *disturb}
	}
	switch *class {
	case "paper":
		cfg.Class = workloads.ClassPaper
	case "test":
		cfg.Class = workloads.ClassTest
	default:
		usage("unknown class %q", *class)
	}
	if e.Accepts&harness.AcceptCoRun != 0 {
		cfg.Multi = &harness.CoRun{Benches: splitList(*corun), ArrivalSpreadSec: *spread}
		for _, name := range cfg.Multi.Benches {
			if _, ok := workloads.ByName(name); !ok {
				usage("unknown benchmark %q in -corun", name)
			}
		}
	}
	if *benchList != "" {
		var err error
		if req.Benches, err = benches(*benchList, spec); err != nil {
			usage("%v", err)
		}
	}
	if e.Accepts&harness.AcceptSweep != 0 {
		var err error
		if req.Param, err = harness.ParseSweepParam(*param); err != nil {
			usage("%v", err)
		}
		for _, s := range splitList(*valuesArg) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				usage("bad -values entry %q: %v", s, err)
			}
			req.Values = append(req.Values, v)
		}
		if err := harness.CheckSweepValues(req.Param, req.Values); err != nil {
			usage("%v", err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ilanexp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ilanexp:", err)
			}
		}()
	}

	if *in != "" {
		o, err := load(*in)
		if err != nil {
			die(err)
		}
		if err := e.Render(os.Stdout, o, *chart); err != nil {
			die(err)
		}
		return
	}

	// The live monitor observes the campaign through a Tracker the pool
	// publishes into; it never feeds back, so -out JSON is byte-identical
	// with or without -serve.
	if *serve != "" {
		track := harness.NewTracker()
		cfg.Track = track
		srv := obsserve.New(track)
		addr, err := srv.Start(*serve)
		if err != nil {
			die(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving live campaign monitor on http://%s\n", addr)
		if *serveLinger > 0 {
			defer time.Sleep(*serveLinger)
		}
	}

	// finishCache runs on every exit path that may have touched the cache
	// (os.Exit skips defers, so the interrupted path calls it explicitly).
	finishCache := func() {}
	if (*cacheOn || *cacheDir != "") && !*noCache {
		dir := *cacheDir
		if dir == "" {
			dir = ".ilan-cache"
		}
		cc, err := cellcache.Open(dir, int64(*cacheMaxMB)<<20)
		if err != nil {
			die(err)
		}
		cfg.Cache = cc
		finishCache = func() {
			cc.Flush()
			st := cc.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions, %d errors (%s)\n",
				st.Hits, st.Misses, st.Evictions, st.Errors, dir)
		}
		defer finishCache()
	}

	// First SIGINT: stop dispatching new units, let in-flight ones finish
	// and commit to the cache, then exit with the resume code. A second
	// SIGINT falls back to the default handler (hard kill).
	cancel := harness.NewCanceler()
	cfg.Cancel = cancel
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr,
			"ilanexp: interrupt — finishing in-flight units (press Ctrl-C again to abort hard)")
		cancel.Cancel()
		signal.Stop(sigc)
	}()

	if !*quiet {
		req.Progress = os.Stderr
	}
	start := time.Now()
	o, err := e.Run(req)
	if err != nil {
		failCampaign(err, *cfg, finishCache)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if err := e.Render(os.Stdout, o, *chart); err != nil {
		die(err)
	}
	outputFiles{out: *out, perfetto: *perfetto, attr: *attrOut, label: *label, quiet: *quiet}.write(o, *cfg)
}

// optionalFlags maps each flag an experiment may not take to the row
// capability that accepts it.
var optionalFlags = []struct {
	name  string
	needs harness.Accepts
}{
	{"in", harness.AcceptIn},
	{"out", harness.AcceptFiles}, {"perfetto", harness.AcceptFiles}, {"attr", harness.AcceptFiles},
	{"chart", harness.AcceptChart},
	{"bench", harness.AcceptBench},
	{"corun", harness.AcceptCoRun}, {"spread", harness.AcceptCoRun},
	{"param", harness.AcceptSweep}, {"values", harness.AcceptSweep},
}

// checkFlags returns the usage error for a flag, among those set on the
// command line, that the experiment would silently ignore. A re-render
// from -in runs nothing and writes no file, so it takes only -chart.
func checkFlags(e *harness.Experiment, set map[string]bool) error {
	accepts, mode := e.Accepts, "-exp "+e.Name
	if set["in"] && accepts&harness.AcceptIn != 0 {
		accepts &= harness.AcceptIn | harness.AcceptChart
		mode += " -in"
	}
	for _, f := range optionalFlags {
		if set[f.name] && accepts&f.needs == 0 {
			return fmt.Errorf("-%s is not supported by %s", f.name, mode)
		}
	}
	return nil
}

// benches resolves a -bench list of built-in names and @path documents.
// Each benchmark may appear once: a repeat would print its row twice,
// count it twice in the geometric mean and simulate every unit twice.
func benches(list string, topo topology.Spec) ([]workloads.Benchmark, error) {
	var out []workloads.Benchmark
	seen := map[string]bool{}
	for _, name := range splitList(list) {
		if path, ok := strings.CutPrefix(name, "@"); ok {
			b, err := document(path, topo)
			if err != nil {
				return nil, err
			}
			if _, builtin := workloads.ByName(b.Name); builtin || seen[b.Name] {
				return nil, fmt.Errorf("%s: document name %q is taken by a built-in benchmark or another -bench entry", path, b.Name)
			}
			seen[b.Name] = true
			out = append(out, b)
			continue
		}
		b, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("benchmark %q appears twice in -bench", name)
		}
		seen[name] = true
		out = append(out, b)
	}
	return out, nil
}

// document reads a -bench @path entry: the looplang document at path, as
// a benchmark named by the document, which must build on the campaign's
// topology.
func document(path string, topo topology.Spec) (workloads.Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return workloads.Benchmark{}, err
	}
	defer f.Close()
	doc, err := looplang.Parse(f)
	if err == nil {
		_, err = doc.Build(machine.New(machine.Config{Topo: topology.MustNew(topo), Alpha: -1}))
	}
	if err != nil {
		return workloads.Benchmark{}, fmt.Errorf("%s: %w", path, err)
	}
	return workloads.FromDocument(doc), nil
}

// load restores a saved campaign for -in.
func load(path string) (*harness.Outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	saved, err := results.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	o := &harness.Outcome{Matrix: saved.ToMatrix(), Multi: saved.ToMultiMatrix()}
	if len(o.Matrix.Benches) == 0 {
		return nil, fmt.Errorf("%s holds no timing samples (attribution sidecars are read with obsdump attr)", path)
	}
	return o, nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// outputFiles are the requested output paths of a campaign run.
type outputFiles struct {
	out, perfetto, attr, label string
	quiet                      bool
}

// write writes every requested output file. Each write is atomic (temp +
// rename): a crash or SIGINT mid-encode must not clobber the previous good
// file with truncated JSON.
func (o outputFiles) write(res *harness.Outcome, cfg harness.Config) {
	if o.out != "" {
		var file *results.File
		if res.Multi != nil {
			file = results.FromMulti(res.Multi, cfg, o.label)
		} else {
			file = results.FromMatrix(res.Matrix, cfg, o.label)
		}
		if err := fsatomic.WriteFile(o.out, file.Write); err != nil {
			die(err)
		}
		o.note("campaign written to %s\n", o.out)
	}
	if o.perfetto != "" {
		if err := writePerfetto(o.perfetto, tracedCells(res)); err != nil {
			die(err)
		}
		o.note("perfetto trace written to %s\n", o.perfetto)
	}
	if o.attr != "" {
		// The attribution report is a sidecar results.File (attr-only cells).
		// A co-run's units collect no attribution; its sidecar carries the
		// solo reference cells' reports.
		file := results.AttrFromMatrix(res.Matrix, cfg, o.label)
		if file == nil {
			fmt.Fprintln(os.Stderr, "ilanexp: no attribution collected (internal error: -attr should imply attribution)")
			os.Exit(1)
		}
		if err := fsatomic.WriteFile(o.attr, file.Write); err != nil {
			die(err)
		}
		o.note("attribution report written to %s\n", o.attr)
	}
}

func (o outputFiles) note(format, path string) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, format, path)
	}
}

// usage reports a usage error and exits with code 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ilanexp: "+format+"\n", args...)
	os.Exit(2)
}

// die reports a runtime failure and exits with code 1.
func die(err error) {
	fmt.Fprintln(os.Stderr, "ilanexp:", err)
	os.Exit(1)
}

// failCampaign exits after a campaign error: with the resume code when the
// campaign was interrupted (after flushing the cache, since os.Exit skips
// defers), with code 1 otherwise.
func failCampaign(err error, cfg harness.Config, finishCache func()) {
	if !errors.Is(err, harness.ErrInterrupted) {
		die(err)
	}
	finishCache()
	if cfg.Cache != nil {
		fmt.Fprintln(os.Stderr,
			"ilanexp: campaign interrupted; completed units are cached — rerun the same command to resume")
	} else {
		fmt.Fprintln(os.Stderr,
			"ilanexp: campaign interrupted (run with -cache to make interrupted campaigns resumable)")
	}
	os.Exit(exitInterrupted)
}

// tracedCell is a cell whose rep 0 recorded a task trace.
type tracedCell struct {
	kind  harness.Kind
	trace *taskrt.Trace
	obs   *obs.Snapshot
}

// tracedCells lists the cells whose rep 0 recorded a task trace: a
// co-run's workload cells, or else the solo cells.
func tracedCells(res *harness.Outcome) []tracedCell {
	var cells []tracedCell
	if res.Multi != nil {
		for _, k := range res.Multi.Kinds {
			if c := res.Multi.Cells[k]; c != nil && c.TaskTrace() != nil {
				cells = append(cells, tracedCell{k, c.TaskTrace(), c.Samples[0].Obs})
			}
		}
		return cells
	}
	res.Matrix.EachCell(func(c *harness.Cell) {
		if c.TaskTrace() != nil {
			cells = append(cells, tracedCell{c.Kind, c.TaskTrace(), c.Samples[0].Obs})
		}
	})
	return cells
}

// writePerfetto exports rep 0's task trace as Chrome trace-event JSON.
// The ILAN cell is the interesting one (phase transitions, yellow/green
// stealing); fall back to the first traced cell when the campaign ran
// without ILAN. A co-run trace's per-program tags group each co-runner
// under its own process track.
func writePerfetto(path string, cells []tracedCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("no task trace recorded (internal error: -perfetto should imply tracing)")
	}
	pick := cells[0]
	for _, c := range cells {
		if c.kind == harness.KindILAN {
			pick = c
			break
		}
	}
	var decisions []obs.Decision
	if pick.obs != nil {
		decisions = pick.obs.Decisions
	}
	// Atomic write, same rationale as -out: never leave torn trace JSON.
	return fsatomic.WriteFile(path, func(w io.Writer) error {
		return chrometrace.Write(w, pick.trace, decisions, chrometrace.Options{})
	})
}
