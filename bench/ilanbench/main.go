// Command ilanbench is the repository's benchmark: it measures the host
// time the simulator takes to run five workloads and checks that every
// simulated output is exactly what it should be.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh -seed 2025 -out run.jsonl       # all five workloads, one child process each
//	bash bench/run.sh --workload corun --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --workload corun --trace 1 -trace-out corun.trace.json
//	bash bench/run.sh -runs 10 -out set1.jsonl         # seeds 2025..2034
//	bash bench/run.sh -compare set1.jsonl set2.jsonl   # verdict per workload and metric
//	bash bench/run.sh -bless -seed 2025                # rewrite bench/reference/seed-2025.json
//
// A run sets its workload up (several times; setup_s is the median), runs
// one untimed warm-up pass, then timed passes until -seconds have passed.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 1 the run instead
// reports per-layer metrics: CPU shares from a profile of untraced
// passes, and host times of every layer call from passes driven by hand
// through the layers.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ilan-sched/ilan/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command line.
type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	trace     bool
	runs      int
	out       string
	traceOut  string
	refDir    string
	bless     bool
	compare   bool
	benchJSON string
	args      []string
}

// boolArg is a boolean flag that takes its value as a separate argument
// ("-trace 1"), the form in which BENCHMARK.json's command receives it.
type boolArg struct{ v *bool }

func (b boolArg) String() string {
	if b.v == nil {
		return "0"
	}
	return map[bool]string{false: "0", true: "1"}[*b.v]
}

func (b boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*b.v = v
	return nil
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("ilanbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	wl := fs.String("workload", "", "comma-separated workloads (default: all of "+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", 2025, "workload seed; -runs N uses seed..seed+N-1")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long a run measures, after set-up and the warm-up pass")
	fs.Var(boolArg{&o.trace}, "trace", "1: report per-layer metrics from a profiled and a hand-traced run instead of end-to-end metrics")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each with the next seed")
	fs.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the host-time spans as Chrome trace-event JSON to this file")
	fs.StringVar(&o.refDir, "ref", "bench/reference", "directory of committed reference digests (seed-N.json)")
	fs.BoolVar(&o.bless, "bless", false, "write the workloads' output digests for -seed into the reference directory")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files: ilanbench -compare a.jsonl b.jsonl")
	fs.StringVar(&o.benchJSON, "benchmark-json", "BENCHMARK.json", "benchmark definition holding the regression bounds (for -compare)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	switch {
	case o.compare && len(o.args) != 2:
		return nil, errors.New("-compare needs two files")
	case !o.compare && len(o.args) != 0:
		return nil, fmt.Errorf("unexpected arguments %q", o.args)
	case !(o.seconds > 0):
		return nil, fmt.Errorf("-seconds must be positive")
	case o.runs < 1:
		return nil, fmt.Errorf("-runs must be at least 1")
	}
	names := workloadNames()
	if *wl != "" {
		names = strings.Split(*wl, ",")
	}
	for _, n := range names {
		w, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames(), ", "))
		}
		o.workloads = append(o.workloads, w)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "ilanbench:", err)
		}
		return 2
	}
	switch {
	case o.compare:
		err = runCompare(o, stdout)
	case o.bless:
		err = runBless(o, stdout)
	case len(o.workloads) == 1 && o.runs == 1:
		var rec *record
		rec, err = runWorkload(o, o.workloads[0], stdout)
		if err == nil && !rec.Correct {
			err = errors.New("correctness gate failed")
		}
	default:
		err = runChildren(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ilanbench:", err)
		return 1
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out keeps of a run.
type record struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        bool   `json:"trace"`
	OutputDigest string `json:"output_digest"`
	resultLine
	// Detail holds the distributions behind the medians: quartiles and
	// sample counts (-out only; not part of the result line).
	Detail map[string]float64 `json:"detail,omitempty"`
}

// measurement is everything a run measured.
type measurement struct {
	b     *bench
	g     *gate
	setup []float64 // seconds per set-up
	walls []float64 // seconds per timed untraced pass
	// best holds each unit's fastest call of the timed untraced passes, in
	// milliseconds.
	best  []float64
	alloc []float64 // bytes per timed untraced pass
	tasks uint64    // simulated tasks per pass
	// speedups is the informational virtual-time comparison of the
	// warm-up pass (paper-solo only).
	speedups string

	// Traced runs only.
	tracedWalls []float64
	shares      map[string]float64
	samples     int64
	tr          *tracer
}

func (m *measurement) addPass(p *pass) {
	m.g.checkPass(m.b, p)
	m.walls = append(m.walls, p.wall.Seconds())
	m.alloc = append(m.alloc, float64(p.allocBytes))
	if m.best == nil {
		m.best = make([]float64, len(p.units))
		for i := range m.best {
			m.best[i] = math.Inf(1)
		}
	}
	for i, u := range p.units {
		m.best[i] = math.Min(m.best[i], float64(u.dur)/1e6)
	}
	m.tasks = p.tasks()
}

// runWorkload runs one workload in this process and prints its report,
// ending with the result line.
func runWorkload(o *options, w *workload, stdout io.Writer) (*record, error) {
	ref, err := loadReference(o.refDir, o.seed)
	if err != nil {
		return nil, err
	}
	m := &measurement{g: &gate{}}
	refNote := fmt.Sprintf("no reference for seed %d: self-checks only", o.seed)
	if ref != nil {
		if m.g.ref = ref.Workloads[w.name]; m.g.ref == nil {
			refNote = fmt.Sprintf("%s has no entry for %s: self-checks only", referencePath(o.refDir, o.seed), w.name)
		} else {
			refNote = "checked against " + referencePath(o.refDir, o.seed)
		}
	}
	for i := 0; i < w.setupReps; i++ {
		runtime.GC() // every set-up starts from the same collected heap
		start := time.Now()
		b, err := w.setup(o.seed)
		if err != nil {
			if m.b != nil {
				m.b.close()
			}
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		if m.b != nil {
			m.b.close()
		}
		m.b = b
	}
	defer m.b.close()

	warm := m.b.runPass(m.b.runUnit, nil)
	m.g.checkPass(m.b, warm)
	m.b.dispatchLongestFirst(warm)
	if w.name == "paper-solo" && warm.firstError() == nil {
		m.speedups = m.b.speedups(warm)
	}
	start := time.Now()
	seconds := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		for len(m.walls) == 0 || time.Since(start) < seconds {
			m.addPass(m.b.runPass(m.b.runUnit, nil))
		}
	} else if err := m.traced(start, seconds); err != nil {
		return nil, err
	}

	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, OutputDigest: m.g.outputDigest()}
	rec.Correct = m.g.correct()
	rec.Attempted = m.g.attempted
	rec.Failed = m.g.failed
	if o.trace {
		rec.Metrics = m.layerMetrics()
	} else {
		rec.Metrics = m.endToEnd()
		rec.Detail = m.detail()
	}
	for name, v := range rec.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}

	m.printReport(stdout, o, rec, refNote)
	if o.trace && o.traceOut != "" {
		if err := m.tr.writeChrome(o.traceOut, w.name); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "host-time spans written to %s\n", o.traceOut)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

// traced alternates untraced passes, whose CPU profile gives the
// per-layer shares, with passes driven by hand through the layers with
// every call timed. Alternating keeps drift in the host's speed out of the
// tracing overhead.
func (m *measurement) traced(start time.Time, seconds time.Duration) error {
	m.tr = newTracer()
	if m.b.w.replay {
		// Passes replay from the cache and never reach the simulator, so
		// the simulation layers are measured by re-simulating every unit
		// once by hand, which also checks that each cache hit equals a
		// fresh simulation.
		m.tr.beginPass()
		p := &pass{units: make([]unitResult, len(m.b.units))}
		_ = harness.ForEach(workers, len(m.b.units), func(i int) error {
			p.units[i] = m.tr.simUnit(m.b, i)
			return nil
		})
		m.g.checkUnits(m.b, p)
		m.tr.simSets = 1
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	runner := m.tr.tracedRunner(m.b)
	for len(m.walls) == 0 || time.Since(start) < seconds {
		m.addPass(m.b.runPass(m.b.runUnit, nil))
		m.tr.beginPass()
		p := m.b.runPass(runner, m.tr)
		m.g.checkPass(m.b, p)
		m.tr.endPass(p)
		m.tracedWalls = append(m.tracedWalls, p.wall.Seconds())
		if !m.b.w.replay {
			m.tr.simSets++
		}
	}
	pprof.StopCPUProfile()
	var err error
	m.shares, m.samples, err = cpuShares(prof.Bytes())
	return err
}

// endToEnd computes the end-to-end metrics of an untraced run. Pass and
// unit times are the fastest observed: on a shared host, interference
// from other tenants comes and goes over seconds to minutes and moves the
// median pass by 10-20% between runs, while the fastest pass of a run is
// the steadier statistic (bench/README.md gives the measured spreads).
func (m *measurement) endToEnd() map[string]metricValue {
	wall := slices.Min(m.walls)
	var alloc float64
	for _, a := range m.alloc {
		alloc += a
	}
	return map[string]metricValue{
		"setup_s":         {median(m.setup), "s"},
		"wall_s":          {wall, "s"},
		"unit_ms.p50":     {percentile(m.best, 0.5), "ms"},
		"sim_tasks_per_s": {float64(m.tasks) / wall, "tasks/s"},
		"alloc_mb":        {alloc / float64(len(m.alloc)) / 1e6, "MB/pass"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// detail records the distributions behind the end-to-end metrics.
func (m *measurement) detail() map[string]float64 {
	d := map[string]float64{"passes": float64(len(m.walls)), "units": float64(len(m.best)),
		"setups": float64(len(m.setup)), "unit_ms.p90": percentile(m.best, 0.9)}
	for name, xs := range map[string][]float64{"wall_s": m.walls, "setup_s": m.setup} {
		q1, q2, q3 := quartiles(xs)
		d[name+".q1"], d[name+".median"], d[name+".q3"] = q1, q2, q3
	}
	return d
}

// layerMetrics computes the per-layer metrics of a traced run.
func (m *measurement) layerMetrics() map[string]metricValue {
	s := &m.tr.sim
	sets := float64(max(m.tr.simSets, 1))
	units := float64(max(s.units, 1))
	perCall := func(d time.Duration, calls int64, scale float64) float64 {
		if calls == 0 {
			return 0
		}
		return d.Seconds() * scale / float64(calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	passes := float64(max(m.tr.passes, 1))
	self := s.run - s.ilanPlan - s.ilanObserve - s.schedPlan - s.schedObserve - s.demand
	out := map[string]metricValue{
		"machine.tasks":                {float64(s.tasks) / sets, "count"},
		"machine.realized_gb":          {s.realizedBytes / 1e9 / sets, "GB"},
		"machine.new_ms":               {s.machineNew.Seconds() * 1e3 / units, "ms"},
		"sim.events":                   {float64(s.events) / sets, "count"},
		"sim.reschedules_per_task":     {ratio(float64(s.rescheduled), float64(s.tasks)), "ratio"},
		"sim.events_per_host_s":        {ratio(float64(s.events), s.run.Seconds()), "1/s"},
		"memsys.l3_lookups":            {float64(s.l3Hits+s.l3Misses) / sets, "count"},
		"memsys.l3_hit_ratio":          {ratio(float64(s.l3Hits), float64(s.l3Hits+s.l3Misses)), "ratio"},
		"taskrt.run_ms":                {s.run.Seconds() * 1e3 / units, "ms"},
		"taskrt.self_ms":               {self.Seconds() * 1e3 / units, "ms"},
		"taskrt.steal_success_ratio":   {ratio(float64(s.steals), float64(s.attempts)), "ratio"},
		"taskrt.loops":                 {float64(s.loops) / sets, "count"},
		"ilan.plan_us":                 {perCall(s.ilanPlan, s.ilanPlans, 1e6), "us"},
		"ilan.observe_us":              {perCall(s.ilanObserve, s.ilanObserves, 1e6), "us"},
		"ilan.plan_calls":              {float64(s.ilanPlans) / sets, "count"},
		"sched.plan_us":                {perCall(s.schedPlan, s.schedPlans, 1e6), "us"},
		"workloads.build_ms":           {s.build.Seconds() * 1e3 / units, "ms"},
		"workloads.demand_calls":       {float64(s.demandCalls) / sets, "count"},
		"workloads.demand_ns_per_call": {perCall(s.demand, s.demandCalls, 1e9), "ns"},
		"results.encode_ms":            {m.tr.encode.Seconds() * 1e3 / passes, "ms"},
		"results.decode_ms":            {m.tr.decode.Seconds() * 1e3 / passes, "ms"},
		"results.out_mb":               {float64(m.tr.outB) / 1e6 / passes, "MB"},
		"trace_overhead_frac":          {slices.Min(m.tracedWalls)/slices.Min(m.walls) - 1, "ratio"},
	}
	for _, l := range layers {
		out["cpu."+l] = metricValue{m.shares[l], "share"}
	}
	out["cpu.covered"] = metricValue{m.shares["covered"], "share"}
	return out
}

// layerRow maps a layer to its metrics, the end-to-end metric a change to
// it should move, and the workload where that shows.
type layerRow struct {
	layer, moves, on string
	metrics          []string
}

var layerRows = []layerRow{
	{"machine", "wall_s, sim_tasks_per_s", "paper-solo, corun (not compute-bound)",
		[]string{"cpu.machine", "machine.tasks", "machine.realized_gb", "machine.new_ms"}},
	{"sim", "wall_s", "compute-bound, paper-solo",
		[]string{"cpu.sim", "sim.events", "sim.reschedules_per_task", "sim.events_per_host_s"}},
	{"memsys", "wall_s", "paper-solo, corun",
		[]string{"cpu.memsys", "memsys.l3_lookups", "memsys.l3_hit_ratio"}},
	{"topology", "wall_s", "corun", []string{"cpu.topology"}},
	{"taskrt", "unit_ms.p50, wall_s", "compute-bound",
		[]string{"cpu.taskrt", "taskrt.run_ms", "taskrt.self_ms", "taskrt.steal_success_ratio", "taskrt.loops"}},
	{"ilan, sched", "none measurable", "any",
		[]string{"cpu.ilan", "cpu.sched", "ilan.plan_us", "ilan.observe_us", "ilan.plan_calls", "sched.plan_us"}},
	{"workloads", "wall_s", "paper-solo",
		[]string{"cpu.workloads", "workloads.build_ms", "workloads.demand_calls", "workloads.demand_ns_per_call"}},
	{"results, chrometrace, obs", "wall_s, alloc_mb, peak_rss_mb", "observed-export; cache-replay for decode",
		[]string{"cpu.results", "cpu.chrometrace", "cpu.obs", "cpu.encoding", "results.encode_ms", "results.decode_ms", "results.out_mb"}},
	{"harness, cellcache", "unit_ms.*, wall_s; setup_s for writes", "cache-replay",
		[]string{"cpu.harness", "cpu.cellcache"}},
	{"Go runtime", "alloc_mb, wall_s", "compute-bound, observed-export",
		[]string{"cpu.gc", "cpu.runtime"}},
	{"coverage", "-", "-", []string{"cpu.covered", "trace_overhead_frac"}},
}

// e2eOrder is the print order of the end-to-end metrics.
var e2eOrder = []string{"setup_s", "wall_s", "unit_ms.p50", "sim_tasks_per_s", "alloc_mb", "peak_rss_mb"}

func (m *measurement) printReport(w io.Writer, o *options, rec *record, refNote string) {
	b := m.b
	fmt.Fprintf(w, "ilanbench %s  seed=%d  seconds=%g  workers=%d  trace=%v\n", b.w.name, o.seed, o.seconds, workers, o.trace)
	fmt.Fprintf(w, "  %s\n  %d units per pass, %s class\n", b.w.why, len(b.units), b.cfg.Class)
	q := func(xs []float64) string {
		q1, _, q3 := quartiles(xs)
		return fmt.Sprintf("[q1 %.4g, q3 %.4g] of %d", q1, q3, len(xs))
	}
	if !o.trace {
		detail := map[string]string{
			"setup_s":         "median " + q(m.setup) + " set-ups",
			"wall_s":          fmt.Sprintf("fastest pass; median %.4g %s passes", median(m.walls), q(m.walls)),
			"unit_ms.p50":     fmt.Sprintf("median over %d units of each unit's fastest call", len(m.best)),
			"sim_tasks_per_s": "simulated tasks per pass / wall_s",
			"alloc_mb":        "mean heap allocation per pass",
			"peak_rss_mb":     "getrusage maxrss",
		}
		fmt.Fprintf(w, "%-18s %14s %-8s %s\n", "metric", "value", "unit", "detail")
		for _, name := range e2eOrder {
			v := rec.Metrics[name]
			fmt.Fprintf(w, "%-18s %14.6g %-8s %s\n", name, v.Value, v.Unit, detail[name])
		}
		if reportable(len(m.best), 0.9) {
			fmt.Fprintf(w, "%-18s %14.6g %-8s over %d units (printed, not gated)\n",
				"unit_ms.p90", percentile(m.best, 0.9), "ms", len(m.best))
		}
	} else {
		fmt.Fprintf(w, "untraced wall_s %.4g (fastest of %d), traced wall_s %.4g (fastest of %d), %d profile samples\n",
			slices.Min(m.walls), len(m.walls), slices.Min(m.tracedWalls), len(m.tracedWalls), m.samples)
		fmt.Fprintf(w, "%-26s %-42s %-32s %s\n", "layer", "metric = value", "should move", "on workload")
		for _, row := range layerRows {
			for i, name := range row.metrics {
				layer, moves, on := "", "", ""
				if i == 0 {
					layer, moves, on = row.layer, row.moves, row.on
				}
				v := rec.Metrics[name]
				fmt.Fprintf(w, "%-26s %-42s %-32s %s\n", layer, fmt.Sprintf("%s = %.4g %s", name, v.Value, v.Unit), moves, on)
			}
		}
	}
	fmt.Fprintf(w, "failed_frac        %14.6g ratio    %d of %d units and exports failed\n",
		float64(rec.Failed)/float64(max(rec.Attempted, 1)), rec.Failed, rec.Attempted)
	for _, p := range m.g.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	fmt.Fprintf(w, "output_digest %s (%s)\n", rec.OutputDigest, refNote)
	if m.speedups != "" {
		fmt.Fprintf(w, "informational, not gated: ILAN over baseline, virtual time, rep 0: %s (paper: +13.2%% mean, +45.8%% SP)\n", m.speedups)
	}
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// runChildren runs every requested (seed, workload) pair in a fresh child
// process, so each workload's heap and peak RSS are its own.
func runChildren(o *options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type outcome struct {
		workload string
		seed     uint64
		line     *resultLine
	}
	var outcomes []outcome
	for r := 0; r < o.runs; r++ {
		seed := o.seed + uint64(r)
		for _, w := range o.workloads {
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"--trace", boolArg{&o.trace}.String(), "-ref", o.refDir}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			if o.trace && o.traceOut != "" {
				args = append(args, "-trace-out", fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(o.traceOut, ".json"), w.name, seed))
			}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			oc := outcome{workload: w.name, seed: seed}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line resultLine
			if json.Unmarshal([]byte(lines[len(lines)-1]), &line) == nil {
				oc.line = &line
			} else if runErr != nil {
				fmt.Fprintf(stderr, "ilanbench: %s seed %d: %v\n", w.name, seed, runErr)
			}
			outcomes = append(outcomes, oc)
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "summary\n%-16s %6s %8s %10s %7s\n", "workload", "seed", "correct", "attempted", "failed")
	bad := 0
	for _, oc := range outcomes {
		if oc.line == nil {
			bad++
			fmt.Fprintf(stdout, "%-16s %6d %8s\n", oc.workload, oc.seed, "no result")
			continue
		}
		if !oc.line.Correct {
			bad++
		}
		fmt.Fprintf(stdout, "%-16s %6d %8v %10d %7d\n", oc.workload, oc.seed, oc.line.Correct, oc.line.Attempted, oc.line.Failed)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs failed or were incorrect", bad, len(outcomes))
	}
	return nil
}

// runBless sets each workload up, runs one pass, checks it, and writes
// its digests as the reference for the seed.
func runBless(o *options, stdout io.Writer) error {
	digests := map[string]map[string]digest{}
	for _, w := range o.workloads {
		b, err := w.setup(o.seed)
		if err != nil {
			return err
		}
		g := &gate{}
		g.checkPass(b, b.runPass(b.runUnit, nil))
		b.close()
		if !g.correct() {
			return fmt.Errorf("%s: refusing to bless: %s", w.name, strings.Join(g.problems, "; "))
		}
		digests[w.name] = g.first
		fmt.Fprintf(stdout, "%-16s %d digests, output_digest %s\n", w.name, len(g.first), g.outputDigest())
	}
	path, err := bless(o.refDir, o.seed, digests)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func runCompare(o *options, stdout io.Writer) error {
	specs, err := loadBounds(o.benchJSON)
	if err != nil {
		return err
	}
	a, err := readRecords(o.args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(o.args[1])
	if err != nil {
		return err
	}
	if !compareSets(stdout, specs, a, b) {
		return errors.New("some metric is worse, unresolved or missing")
	}
	return nil
}
