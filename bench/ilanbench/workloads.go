package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/chrometrace"
	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/results"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// workers is the closed-loop client count: units are fanned over
// harness.ForEach with this many goroutines, one per core of the
// two-core machines the benchmark is calibrated on.
const workers = 2

// resultsLabel is the label every encoded results file carries.
const resultsLabel = "ilanbench"

var (
	paperKinds = []harness.Kind{harness.KindBaseline, harness.KindILAN,
		harness.KindILANNoMold, harness.KindWorkSharing}
	allKinds = []harness.Kind{harness.KindBaseline, harness.KindILAN,
		harness.KindILANNoMold, harness.KindWorkSharing, harness.KindAffinity,
		harness.KindILANCounters, harness.KindShepherd}
	pairKinds = []harness.Kind{harness.KindBaseline, harness.KindILAN}
)

// workload is one named input set. A pass runs every unit once, fanned
// over the workers, then encodes and decodes the pass's outputs the way
// `ilanexp -out` does.
type workload struct {
	name  string
	why   string
	class workloads.Class
	reps  int
	// observe turns on every observability output (metrics, decision
	// trace, attribution, task trace) and adds the attribution sidecar and
	// Perfetto export to the pass.
	observe bool
	// replay attaches a campaign cache that setup fills cold, so passes
	// replay every unit from it.
	replay bool
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps int
	corun     *harness.CoRun
	units     func() []unit
}

// unit is one RunOne (solo) or RunMultiOne (co-run) call.
type unit struct {
	name    string
	bench   workloads.Benchmark   // solo units
	benches []workloads.Benchmark // co-run units
	kind    harness.Kind
	rep     int
}

func (u unit) multi() bool { return u.benches != nil }

var allWorkloads = []*workload{
	{
		name:      "paper-solo",
		why:       "paper-class Fig 2/4/6 campaign, the bulk of make figures; memory-bound units spend host time in the machine fluid refresh and memsys",
		class:     workloads.ClassPaper,
		reps:      1,
		setupReps: 15,
		units:     func() []unit { return soloUnits(workloads.All(), paperKinds, 1) },
	},
	{
		name:      "compute-bound",
		why:       "paper-class Matmul under all 7 kinds x 30 reps: short units with almost no sharing, so host time is taskrt dispatch, the sim heap and GC",
		class:     workloads.ClassPaper,
		reps:      30,
		setupReps: 15,
		units: func() []unit {
			mm, _ := workloads.ByName("Matmul")
			return soloUnits([]workloads.Benchmark{mm}, allKinds, 30)
		},
	},
	{
		name:      "corun",
		why:       "paper-class CG+FT+SP co-run with staggered arrivals plus solo references: concurrent loop table, occupancy-constrained plans, shared controllers",
		class:     workloads.ClassPaper,
		reps:      2,
		setupReps: 15,
		corun:     &harness.CoRun{Benches: []string{"CG", "FT", "SP"}, ArrivalSpreadSec: 0.05},
		units: func() []unit {
			benches := byNames("CG", "FT", "SP")
			us := soloUnits(benches, pairKinds, 2)
			for _, k := range pairKinds {
				for rep := 0; rep < 2; rep++ {
					us = append(us, unit{name: fmt.Sprintf("CG+FT+SP/%s/%d", k, rep),
						benches: benches, kind: k, rep: rep})
				}
			}
			return us
		},
	},
	{
		name:      "observed-export",
		why:       "test-class units with metrics, decision and task traces and attribution, exported as results, attribution and Perfetto JSON: the encoding path",
		class:     workloads.ClassTest,
		reps:      2,
		observe:   true,
		setupReps: 15,
		units:     func() []unit { return soloUnits(byNames("CG", "FT", "SP"), pairKinds, 2) },
	},
	{
		name:      "cache-replay",
		why:       "147 test-class units replayed from a warm campaign cache, then encoded and decoded: cellcache and harness keys with the simulator bypassed",
		class:     workloads.ClassTest,
		reps:      3,
		replay:    true,
		setupReps: 5,
		units:     func() []unit { return soloUnits(workloads.All(), allKinds, 3) },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func soloUnits(benches []workloads.Benchmark, kinds []harness.Kind, reps int) []unit {
	var us []unit
	for _, b := range benches {
		for _, k := range kinds {
			for rep := 0; rep < reps; rep++ {
				us = append(us, unit{name: fmt.Sprintf("%s/%s/%d", b.Name, k, rep),
					bench: b, kind: k, rep: rep})
			}
		}
	}
	return us
}

func byNames(names ...string) []workloads.Benchmark {
	out := make([]workloads.Benchmark, len(names))
	for i, n := range names {
		b, ok := workloads.ByName(n)
		if !ok {
			panic("ilanbench: unknown benchmark " + n)
		}
		out[i] = b
	}
	return out
}

// config is the harness configuration every unit of the workload runs
// under: the paper's noise model and topology with the run's seed.
func (w *workload) config(seed uint64) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Seed = seed
	cfg.Class = w.class
	cfg.Reps = w.reps
	cfg.Jobs = workers
	cfg.Multi = w.corun
	if w.observe {
		cfg.Metrics = true
		cfg.TraceDecisions = true
		cfg.Attr = true
		cfg.TraceTasks = true
	}
	return cfg
}

// bench is a workload set up for one seed.
type bench struct {
	w     *workload
	cfg   harness.Config
	units []unit
	// cacheDir and coldOut belong to cache-replay: the directory the cold
	// fill wrote and the results encoding of the cold-filled pass, which
	// every replayed pass must reproduce byte for byte.
	cacheDir string
	coldOut  []byte
	// order is the dispatch order of the units, longest first by the
	// warm-up pass's times, so the workers finish a pass together instead
	// of one waiting on a long unit dispatched last; nil dispatches in
	// unit order.
	order []int
}

// setup prepares the workload: it builds every unit's machine and
// program and validates them, so a broken model fails before anything is
// timed, and for cache-replay fills a fresh cache directory cold (every
// unit simulated and committed with fsync).
func (w *workload) setup(seed uint64) (*bench, error) {
	b := &bench{w: w, cfg: w.config(seed), units: w.units()}
	if err := b.validateUnits(); err != nil {
		return nil, err
	}
	if !w.replay {
		return b, nil
	}
	dir, err := os.MkdirTemp("", "ilanbench-cache-")
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	b.cacheDir = dir
	cache, err := cellcache.Open(dir, 0)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	b.cfg.Cache = cache
	fill := b.runPass(b.runUnit, nil)
	if err := fill.firstError(); err != nil {
		b.close()
		return nil, fmt.Errorf("setup %s: cold fill: %w", w.name, err)
	}
	b.coldOut = fill.out[0]
	return b, nil
}

// close removes what setup created on disk.
func (b *bench) close() {
	if b.cacheDir != "" {
		os.RemoveAll(b.cacheDir)
		b.cacheDir = ""
	}
}

func (b *bench) validateUnits() error {
	for _, u := range b.units {
		m := newMachine(b.cfg, u.rep)
		if u.multi() {
			w := workloads.CoRunWorkload(m, u.benches, b.cfg.Class, b.cfg.Multi.ArrivalSpreadSec)
			if err := w.Validate(); err != nil {
				return fmt.Errorf("setup %s: %w", b.w.name, err)
			}
			continue
		}
		if err := u.bench.Build(m, b.cfg.Class).Validate(); err != nil {
			return fmt.Errorf("setup %s: %w", b.w.name, err)
		}
	}
	return nil
}

// newMachine builds the machine harness.RunOne builds for repetition rep:
// the configured topology and noise, and the per-repetition seed
// derivation, so hand-driven units reproduce RunOne exactly.
func newMachine(cfg harness.Config, rep int) *machine.Machine {
	spec := cfg.Topo
	if spec.Sockets == 0 {
		spec = topology.Zen4Vera()
	}
	return machine.New(machine.Config{
		Topo:  topology.MustNew(spec),
		Seed:  cfg.Seed ^ (uint64(rep)+1)*0x9e3779b97f4a7c15,
		Noise: cfg.Noise,
		Alpha: -1,
	})
}

// unitResult is one unit's outputs and host time.
type unitResult struct {
	solo  harness.RunSample
	multi harness.MultiSample
	err   error
	dur   time.Duration
}

// tasks returns the simulated task executions the unit delivered.
func (r *unitResult) tasks() uint64 {
	n := r.solo.Tasks
	for _, p := range r.multi.Programs {
		n += p.Tasks
	}
	return n
}

// pass is one execution of every unit plus the export step.
type pass struct {
	wall  time.Duration
	units []unitResult
	// out holds the encoded outputs: the results file first, then (for
	// observed-export) the attribution sidecar and one Perfetto trace per
	// traced cell.
	out     [][]byte
	decoded *results.File
	err     error // export failure
	// allocBytes is the heap allocation during the pass.
	allocBytes uint64
}

func (p *pass) tasks() uint64 {
	var n uint64
	for i := range p.units {
		n += p.units[i].tasks()
	}
	return n
}

func (p *pass) firstError() error {
	for _, r := range p.units {
		if r.err != nil {
			return r.err
		}
	}
	return p.err
}

// passLabels marks profile samples taken inside an untraced timed pass,
// so the per-layer CPU shares leave out the benchmark's own checking and
// the hand-traced passes.
var (
	passLabels   = pprof.Labels("ilanbench", "pass")
	tracedLabels = pprof.Labels("ilanbench", "traced")
)

// runPass runs every unit through run, fanned over the workers, then
// exports. tr, when non-nil, records spans and layer times of the export.
func (b *bench) runPass(run func(i int) unitResult, tr *tracer) *pass {
	p := &pass{units: make([]unitResult, len(b.units))}
	a0 := heapAllocBytes()
	start := time.Now()
	labels := passLabels
	if tr != nil {
		labels = tracedLabels
	}
	pprof.Do(context.Background(), labels, func(context.Context) {
		// Unit errors are kept per unit instead of returned, so one
		// failing unit does not stop the others.
		_ = harness.ForEach(workers, len(b.units), func(k int) error {
			i := k
			if b.order != nil {
				i = b.order[k]
			}
			p.units[i] = run(i)
			return nil
		})
		p.err = b.export(p, tr)
	})
	p.wall = time.Since(start)
	p.allocBytes = heapAllocBytes() - a0
	return p
}

// dispatchLongestFirst orders later passes by the units' times in p.
func (b *bench) dispatchLongestFirst(p *pass) {
	b.order = make([]int, len(p.units))
	for i := range b.order {
		b.order[i] = i
	}
	sort.SliceStable(b.order, func(x, y int) bool {
		return p.units[b.order[x]].dur > p.units[b.order[y]].dur
	})
}

// runUnit is the untraced unit: one call into the harness's unit API.
func (b *bench) runUnit(i int) unitResult {
	u := b.units[i]
	var r unitResult
	start := time.Now()
	if u.multi() {
		r.multi, r.err = harness.RunMultiOne(u.benches, u.kind, b.cfg, u.rep)
	} else {
		r.solo, r.err = harness.RunOne(u.bench, u.kind, b.cfg, u.rep)
	}
	r.dur = time.Since(start)
	return r
}

// export encodes the pass's outputs as `ilanexp -out` (and, for
// observed-export, -attr and -perfetto) would, then decodes the results
// file back.
func (b *bench) export(p *pass, tr *tracer) error {
	if err := p.firstError(); err != nil {
		return nil // units failed; there is nothing sound to export
	}
	mx := b.matrix(p)
	var data []byte
	var err error
	tr.span("results.encode", func() {
		var f *results.File
		if b.cfg.Multi != nil {
			f = results.FromMulti(b.multiMatrix(p, mx), b.cfg, resultsLabel)
		} else {
			f = results.FromMatrix(mx, b.cfg, resultsLabel)
		}
		data, err = encode(f)
	})
	if err != nil {
		return err
	}
	p.out = [][]byte{data}
	if b.w.observe {
		tr.span("results.encode", func() {
			data, err = encode(results.AttrFromMatrix(mx, b.cfg, resultsLabel))
		})
		if err != nil {
			return err
		}
		p.out = append(p.out, data)
		tr.span("chrometrace.write", func() {
			mx.EachCell(func(c *harness.Cell) {
				if err != nil || c.TaskTrace() == nil {
					return
				}
				var buf bytes.Buffer
				err = chrometrace.Write(&buf, c.TaskTrace(), c.Samples[0].Obs.Decisions, chrometrace.Options{})
				p.out = append(p.out, buf.Bytes())
			})
		})
		if err != nil {
			return err
		}
	}
	tr.span("results.decode", func() {
		p.decoded, err = results.Read(bytes.NewReader(p.out[0]))
	})
	return err
}

func encode(f *results.File) ([]byte, error) {
	if f == nil {
		return nil, fmt.Errorf("export: nothing to encode")
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// matrix assembles the pass's solo units into a campaign matrix, cells in
// unit order and samples in repetition order.
func (b *bench) matrix(p *pass) *harness.Matrix {
	var cells []*harness.Cell
	byKey := map[string]*harness.Cell{}
	for i, u := range b.units {
		if u.multi() {
			continue
		}
		key := u.bench.Name + "/" + u.kind.String()
		c := byKey[key]
		if c == nil {
			c = &harness.Cell{Bench: u.bench.Name, Kind: u.kind, Samples: make([]harness.RunSample, b.cfg.Reps)}
			byKey[key] = c
			cells = append(cells, c)
		}
		c.Samples[u.rep] = p.units[i].solo
	}
	return harness.BuildMatrix(cells)
}

// multiMatrix assembles a co-run campaign from the pass's co-run units
// and the solo reference matrix.
func (b *bench) multiMatrix(p *pass, solo *harness.Matrix) *harness.MultiMatrix {
	mm := &harness.MultiMatrix{CoRun: *b.cfg.Multi, Cells: map[harness.Kind]*harness.MultiCell{}, Solo: solo}
	for i, u := range b.units {
		if !u.multi() {
			continue
		}
		c := mm.Cells[u.kind]
		if c == nil {
			c = &harness.MultiCell{Kind: u.kind, Samples: make([]harness.MultiSample, b.cfg.Reps)}
			mm.Cells[u.kind] = c
			mm.Kinds = append(mm.Kinds, u.kind)
		}
		c.Samples[u.rep] = p.units[i].multi
	}
	return mm
}

// speedups renders ILAN's virtual-time speedup over the baseline per
// benchmark of a pass, and their mean, for the informational line.
func (b *bench) speedups(p *pass) string {
	mx := b.matrix(p)
	var parts []string
	var sum float64
	for _, name := range mx.Benches {
		if mx.Cell(name, harness.KindILAN) == nil || mx.Cell(name, harness.KindBaseline) == nil {
			continue
		}
		gain := (mx.Speedup(name, harness.KindILAN) - 1) * 100
		sum += gain
		parts = append(parts, fmt.Sprintf("%s %+.1f%%", name, gain))
	}
	if len(parts) == 0 {
		return ""
	}
	return fmt.Sprintf("%s; mean %+.1f%%", strings.Join(parts, ", "), sum/float64(len(parts)))
}

// allocSample is read only by the goroutine that runs passes.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation of the process, read
// without stopping the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
