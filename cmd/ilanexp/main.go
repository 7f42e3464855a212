// Command ilanexp reproduces the paper's evaluation: it runs the seven
// benchmarks under the requested schedulers on the simulated 64-core Zen 4
// machine and prints the rows of the requested figure or table.
//
// Usage:
//
//	ilanexp -exp fig2                # Figure 2 (ILAN vs baseline speedup)
//	ilanexp -exp all -reps 30        # every figure and table, paper setup
//	ilanexp -exp all -jobs 8         # same campaign across 8 workers
//	ilanexp -exp fig6 -bench CG,FT   # subset of benchmarks
//	ilanexp -exp fig2 -class test    # reduced scale (fast smoke run)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/fsatomic"
	"github.com/ilan-sched/ilan/internal/harness"
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
	exp := flag.String("exp", "fig2", "experiment: fig2|fig3|fig4|table1|fig5|fig6|affinity|counters|related|oracle|multi|all")
	reps := flag.Int("reps", 30, "repetitions per (benchmark, scheduler) pair")
	jobs := flag.Int("jobs", 0, "parallel workers for independent runs (0 = GOMAXPROCS, 1 = sequential)")
	class := flag.String("class", "paper", "benchmark scale: paper|test")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all)")
	seed := flag.Uint64("seed", 2025, "base random seed")
	quiet := flag.Bool("q", false, "suppress progress output")
	chart := flag.Bool("chart", false, "render results as ASCII bar charts")
	topo := flag.String("topo", "zen4", "machine topology: zen4|1socket|4socket|smalltest")
	disturb := flag.Int("disturb", -1, "inject a sustained external interferer on this NUMA node (dynamic-asymmetry extension)")
	out := flag.String("out", "", "also write the campaign as JSON (for resultdiff)")
	label := flag.String("label", "", "label stored in the -out file")
	in := flag.String("in", "", "render reports from a saved campaign JSON instead of running")
	metrics := flag.Bool("metrics", false, "collect observability metrics; merged per cell into the -out JSON")
	traceDecisions := flag.Bool("trace-decisions", false, "record every ILAN configuration decision (implies -metrics)")
	serve := flag.String("serve", "", "serve live campaign progress over HTTP on this address (e.g. :8080 or 127.0.0.1:0)")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve monitor up this long after the campaign finishes")
	perfetto := flag.String("perfetto", "", "write rep 0's execution trace as Perfetto (Chrome trace-event) JSON to this file (implies -metrics -trace-decisions)")
	attrOut := flag.String("attr", "", "collect virtual-time attribution and write the per-cell report JSON to this file (output-neutral: -out/-perfetto bytes are identical either way)")
	corun := flag.String("corun", "", "comma-separated benchmarks to co-run as one workload (-exp multi; default CG,FT)")
	spread := flag.Float64("spread", 0, "spread co-run program arrivals over this many seconds (-exp multi)")
	noCoalesce := flag.Bool("no-coalesce", false, "disable instant-coalesced refresh in the fluid model (debug; outputs are byte-identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap-allocation profile to this file at exit")
	cacheOn := flag.Bool("cache", false, "memoize per-unit results in a content-addressed on-disk cache (see -cache-dir)")
	cacheDir := flag.String("cache-dir", "", "campaign cache directory (implies -cache; default .ilan-cache)")
	noCache := flag.Bool("no-cache", false, "disable the campaign cache even when -cache/-cache-dir is given")
	cacheMaxMB := flag.Int("cache-max-mb", 1024, "campaign cache size cap in MiB before LRU eviction (0 = unbounded)")
	flag.Parse()

	// Flag-value errors exit with code 2 (matching flag.Parse's own
	// convention); runtime failures exit with 1.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "ilanexp: -jobs must be >= 0 (got %d)\n", *jobs)
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "ilanexp: -reps must be >= 1 (got %d)\n", *reps)
		os.Exit(2)
	}
	if *cacheMaxMB < 0 {
		fmt.Fprintf(os.Stderr, "ilanexp: -cache-max-mb must be >= 0 (got %d)\n", *cacheMaxMB)
		os.Exit(2)
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

	cfg := harness.DefaultConfig()
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Jobs = *jobs
	cfg.Metrics = *metrics
	cfg.TraceDecisions = *traceDecisions
	cfg.NoCoalesce = *noCoalesce
	cfg.Attr = *attrOut != ""
	if *perfetto != "" {
		// The exporter needs the task trace plus the decision trace; turn
		// both on rather than failing on a missing flag combination.
		cfg.TraceTasks = true
		cfg.TraceDecisions = true
	}

	// The live monitor observes the campaign through a Tracker the pool
	// publishes into; it never feeds back, so -out JSON is byte-identical
	// with or without -serve.
	var track *harness.Tracker
	if *serve != "" {
		track = harness.NewTracker()
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
	spec, ok := topology.Presets()[*topo]
	if !ok {
		fmt.Fprintf(os.Stderr, "ilanexp: unknown topology %q\n", *topo)
		os.Exit(2)
	}
	cfg.Topo = spec
	if *disturb >= 0 {
		cfg.Disturb = &harness.Disturb{Node: *disturb}
	}
	switch *class {
	case "paper":
		cfg.Class = workloads.ClassPaper
	case "test":
		cfg.Class = workloads.ClassTest
	default:
		fmt.Fprintf(os.Stderr, "ilanexp: unknown class %q\n", *class)
		os.Exit(2)
	}

	if *exp == "multi" {
		list := *corun
		if list == "" {
			list = "CG,FT"
		}
		co := &harness.CoRun{ArrivalSpreadSec: *spread}
		for _, name := range strings.Split(list, ",") {
			co.Benches = append(co.Benches, strings.TrimSpace(name))
		}
		if *spread < 0 {
			fmt.Fprintf(os.Stderr, "ilanexp: -spread must be >= 0 (got %g)\n", *spread)
			os.Exit(2)
		}
		cfg.Multi = co
	} else if *corun != "" || *spread != 0 {
		fmt.Fprintln(os.Stderr, "ilanexp: -corun/-spread require -exp multi")
		os.Exit(2)
	}

	benches := workloads.All()
	if *benchList != "" {
		var subset []workloads.Benchmark
		for _, name := range strings.Split(*benchList, ",") {
			b, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "ilanexp: unknown benchmark %q\n", name)
				os.Exit(2)
			}
			subset = append(subset, b)
		}
		benches = subset
	}

	// The campaign cache and graceful interruption are wired after every
	// flag is validated, so a usage error never creates a cache directory.
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

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			die(err)
		}
		saved, err := results.Read(f)
		f.Close()
		if err != nil {
			die(err)
		}
		if *exp == "multi" {
			mm := saved.ToMultiMatrix()
			if mm == nil {
				fmt.Fprintln(os.Stderr, "ilanexp: results file holds no multi campaign")
				os.Exit(1)
			}
			if err := harness.ReportMulti(os.Stdout, mm); err != nil {
				die(err)
			}
			return
		}
		mx := saved.ToMatrix()
		if err := harness.Report(os.Stdout, *exp, mx); err != nil {
			die(err)
		}
		if *chart && *exp != "table1" {
			fmt.Println()
			if err := harness.RenderChart(os.Stdout, *exp, mx); err != nil {
				die(err)
			}
		}
		return
	}

	if *exp == "oracle" {
		progress := func(bench string, threads int, full bool) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "oracle %-8s threads=%-3d full=%v\n", bench, threads, full)
			}
		}
		res, err := harness.RunOracle(benches, cfg, progress)
		if err != nil {
			failCampaign(err, cfg, finishCache)
		}
		harness.ReportOracle(os.Stdout, res)
		return
	}

	kinds, err := harness.KindsFor(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ilanexp:", err)
		os.Exit(2)
	}

	if *exp == "multi" {
		progress := func(k harness.Kind) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "queued %-8s %-12s (%d reps, %d jobs)\n",
					cfg.Multi.Scenario(), k, cfg.Reps, harness.DefaultJobs(cfg.Jobs))
			}
		}
		start := time.Now()
		mm, err := harness.RunMulti(kinds, cfg, progress)
		if err != nil {
			failCampaign(err, cfg, finishCache)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Millisecond))
		}
		if err := harness.ReportMulti(os.Stdout, mm); err != nil {
			die(err)
		}
		if *out != "" {
			file := results.FromMulti(mm, cfg, *label)
			if err := fsatomic.WriteFile(*out, file.Write); err != nil {
				die(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "campaign written to %s\n", *out)
			}
		}
		if *perfetto != "" {
			var traced []tracedCell
			for _, k := range mm.Kinds {
				if c := mm.Cells[k]; c != nil && c.TaskTrace() != nil {
					traced = append(traced, tracedCell{k, c.TaskTrace(), c.Samples[0].Obs})
				}
			}
			if err := writePerfetto(*perfetto, traced); err != nil {
				die(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "perfetto trace written to %s\n", *perfetto)
			}
		}
		if *attrOut != "" {
			// Co-run units do not collect attribution; the sidecar carries
			// the solo reference cells' reports.
			file := results.AttrFromMatrix(mm.Solo, cfg, *label)
			if file == nil {
				fmt.Fprintln(os.Stderr, "ilanexp: no attribution collected (internal error: -attr should imply attribution)")
				os.Exit(1)
			}
			if err := fsatomic.WriteFile(*attrOut, file.Write); err != nil {
				die(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "attribution report written to %s\n", *attrOut)
			}
		}
		return
	}

	progress := func(bench string, k harness.Kind) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "queued %-8s %-12s (%d reps, %d jobs)\n",
				bench, k, cfg.Reps, harness.DefaultJobs(cfg.Jobs))
		}
	}
	start := time.Now()
	mx, err := harness.Run(benches, kinds, cfg, progress)
	if err != nil {
		failCampaign(err, cfg, finishCache)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if err := harness.Report(os.Stdout, *exp, mx); err != nil {
		die(err)
	}
	if *chart && *exp != "table1" {
		fmt.Println()
		if err := harness.RenderChart(os.Stdout, *exp, mx); err != nil {
			die(err)
		}
	}
	if *out != "" {
		// Atomic write (temp + rename): a crash or SIGINT mid-encode must
		// not clobber the previous good results file with truncated JSON.
		file := results.FromMatrix(mx, cfg, *label)
		if err := fsatomic.WriteFile(*out, file.Write); err != nil {
			die(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "campaign written to %s\n", *out)
		}
	}
	if *perfetto != "" {
		var traced []tracedCell
		mx.EachCell(func(c *harness.Cell) {
			if c.TaskTrace() != nil {
				traced = append(traced, tracedCell{c.Kind, c.TaskTrace(), c.Samples[0].Obs})
			}
		})
		if err := writePerfetto(*perfetto, traced); err != nil {
			die(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "perfetto trace written to %s\n", *perfetto)
		}
	}
	if *attrOut != "" {
		// The attribution report is a sidecar results.File (attr-only
		// cells), written atomically like -out.
		file := results.AttrFromMatrix(mx, cfg, *label)
		if file == nil {
			fmt.Fprintln(os.Stderr, "ilanexp: no attribution collected (internal error: -attr should imply attribution)")
			os.Exit(1)
		}
		if err := fsatomic.WriteFile(*attrOut, file.Write); err != nil {
			die(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "attribution report written to %s\n", *attrOut)
		}
	}
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
