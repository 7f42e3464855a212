// Package harness runs the paper's experiments: every benchmark under
// every scheduler for N repetitions on fresh simulated machines, and
// formats the aggregates as the rows of each figure and table in the
// evaluation section.
package harness

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/cellcache"
	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// Kind identifies a scheduler under test.
type Kind uint8

const (
	// KindBaseline is the default LLVM-like random work-stealing scheduler.
	KindBaseline Kind = iota
	// KindILAN is the full ILAN scheduler.
	KindILAN
	// KindILANNoMold is ILAN with moldability disabled (Figure 4).
	KindILANNoMold
	// KindWorkSharing is static OpenMP work-sharing (Figure 6).
	KindWorkSharing
	// KindAffinity honours OpenMP affinity-clause hints but has no
	// interference awareness — the §3.4 comparison (extension experiment,
	// not a paper figure).
	KindAffinity
	// KindILANCounters is ILAN with performance-counter-guided selection:
	// compute-bound loops skip exploration (the paper's future work).
	KindILANCounters
	// KindShepherd is the shepherd-style hierarchical scheduler of the
	// related work ILAN builds on (Olivier et al.): hierarchical
	// distribution and chunked remote steals, but no PTT, no moldability.
	KindShepherd
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindILAN:
		return "ilan"
	case KindILANNoMold:
		return "ilan-nomold"
	case KindWorkSharing:
		return "worksharing"
	case KindAffinity:
		return "affinity"
	case KindILANCounters:
		return "ilan-counters"
	case KindShepherd:
		return "shepherd"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NewScheduler constructs a fresh scheduler of the kind. Schedulers carry
// per-run state (the PTT), so every run gets a new one.
func NewScheduler(k Kind) taskrt.Scheduler {
	switch k {
	case KindBaseline:
		return &sched.Baseline{}
	case KindILAN:
		return ilan.MustNew(ilan.DefaultOptions())
	case KindILANNoMold:
		opts := ilan.DefaultOptions()
		opts.Moldability = false
		return ilan.MustNew(opts)
	case KindWorkSharing:
		return &sched.WorkSharing{}
	case KindAffinity:
		return &sched.Affinity{}
	case KindILANCounters:
		opts := ilan.DefaultOptions()
		opts.CounterGuided = true
		return ilan.MustNew(opts)
	case KindShepherd:
		return &sched.Shepherd{}
	default:
		panic(fmt.Sprintf("harness: unknown kind %d", k))
	}
}

// Config controls an experiment campaign.
type Config struct {
	Class workloads.Class
	Reps  int
	Seed  uint64
	// Jobs bounds the worker goroutines the executor fans independent
	// runs across (see pool.go). 0 selects GOMAXPROCS; 1 forces the
	// sequential path. Results are byte-identical for every value.
	Jobs  int
	Noise machine.NoiseConfig
	Topo  topology.Spec // zero value selects Zen4Vera
	// Disturb, when non-nil, injects a sustained external interferer on
	// one NUMA node (see machine.DisturbNode) — the dynamic-asymmetry
	// extension experiment.
	Disturb *Disturb
	// Machine-model overrides for sensitivity sweeps; zero values keep
	// the memsys calibration defaults, and nil pointers keep the default
	// contention coefficients.
	ControllerBW float64
	LinkBW       float64
	CoreStreamBW float64
	Alpha        *float64
	Beta         *float64
	// Metrics enables the observability layer: every run collects the
	// internal/obs registry, and cells carry a merged Snapshot. Off by
	// default — the disabled path is the PR 2 zero-allocation hot path.
	Metrics bool
	// TraceDecisions additionally records every ILAN configuration decision
	// into the per-run ring buffer (implies Metrics).
	TraceDecisions bool
	// DecisionCap sizes the decision ring (0 = obs.DefaultRingCap).
	DecisionCap int
	// TraceTasks records the full task-event trace of repetition 0 of every
	// cell (one traced rep keeps the cost bounded; rep 0 runs identically
	// for any Jobs setting, so the trace is deterministic). The trace feeds
	// the Perfetto export (internal/chrometrace) and rides along in the
	// results file.
	TraceTasks bool
	// Attr enables virtual-time attribution: every run carries an
	// obs.AttrSnapshot decomposing task and loop time into ideal compute,
	// core-speed, locality, interference, and runtime terms (DESIGN.md
	// §14). Attribution is output-neutral — every other campaign byte is
	// identical with it on or off — and is exported separately from -out
	// (ilanexp -attr).
	Attr bool
	// Track, when non-nil, receives live campaign progress: per-cell rep
	// counts, per-rep observability snapshots, and completion events. The
	// tracker is read-only telemetry — attaching one changes no campaign
	// output byte (see progress.go).
	Track *Tracker
	// Cache, when non-nil, memoizes per-unit results content-addressed by
	// the inputs that determine them (see cache.go and DESIGN.md §13). A
	// campaign assembled from cache hits is byte-identical to a cold run;
	// the cache never feeds back into the simulation.
	Cache *cellcache.Cache
	// Cancel, when non-nil, allows graceful interruption: after Cancel()
	// the pool dispatches no new units, in-flight units finish (and commit
	// to the cache), and the campaign returns ErrInterrupted. Rerunning
	// the same configuration with the same cache resumes by cache hit.
	Cancel *Canceler
	// Multi, when non-nil, selects the multiprogrammed campaign: the named
	// benchmarks co-run as one workload per repetition (see multi.go and
	// RunMulti). Solo campaigns (Run/RunOne) ignore it; RunMulti's solo
	// reference cells normalize it out so they share cache entries with
	// plain solo campaigns.
	Multi *CoRun
}

// obsEnabled reports whether runs should carry an obs collector.
func (cfg Config) obsEnabled() bool { return cfg.Metrics || cfg.TraceDecisions }

// Disturb describes an external interferer for the asymmetry experiment.
type Disturb struct {
	Node     int
	Slowdown float64 // core speed factor, (0, 1]; 0 selects 0.6
	MemLoad  float64 // controller queue-pressure load; 0 selects 8
}

// DefaultConfig reproduces the paper's methodology: the 64-core Zen 4
// platform, 30 repetitions, noise on.
func DefaultConfig() Config {
	return Config{
		Class: workloads.ClassPaper,
		Reps:  30,
		Seed:  2025,
		Noise: machine.DefaultNoise(),
		Topo:  topology.Zen4Vera(),
	}
}

// RunSample is one benchmark run's measurements.
type RunSample struct {
	ElapsedSec      float64
	OverheadSec     float64
	WeightedThreads float64
	StealsLocal     int
	StealsRemote    int
	Tasks           uint64
	// Obs is the run's observability snapshot (nil unless Config.Metrics
	// or Config.TraceDecisions is set).
	Obs *obs.Snapshot
	// Trace is the run's task-event trace (nil unless Config.TraceTasks is
	// set and this is repetition 0).
	Trace *taskrt.Trace
	// Attr is the run's attribution report (nil unless Config.Attr is set).
	Attr *obs.AttrSnapshot
}

// Cell aggregates all repetitions of one (benchmark, scheduler) pair.
type Cell struct {
	Bench   string
	Kind    Kind
	Samples []RunSample
}

// Times returns the elapsed seconds of all samples.
func (c *Cell) Times() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.ElapsedSec
	}
	return out
}

// Overheads returns the scheduling overhead seconds of all samples.
func (c *Cell) Overheads() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.OverheadSec
	}
	return out
}

// TaskTrace returns the cell's recorded task-event trace (repetition 0),
// or nil when the campaign ran without Config.TraceTasks.
func (c *Cell) TaskTrace() *taskrt.Trace {
	if len(c.Samples) == 0 {
		return nil
	}
	return c.Samples[0].Trace
}

// MergedObs merges the samples' observability snapshots in repetition
// order (nil when the campaign ran without metrics). Merging is
// deterministic, so the result is byte-identical for any Jobs setting.
func (c *Cell) MergedObs() *obs.Snapshot {
	snaps := make([]*obs.Snapshot, len(c.Samples))
	for i, s := range c.Samples {
		snaps[i] = s.Obs
	}
	return obs.Merge(snaps)
}

// MergedAttr merges the samples' attribution snapshots in repetition
// order (nil when the campaign ran without Config.Attr). Like MergedObs,
// the merge is deterministic, so the result is byte-identical for any
// Jobs setting.
func (c *Cell) MergedAttr() *obs.AttrSnapshot {
	snaps := make([]*obs.AttrSnapshot, len(c.Samples))
	for i, s := range c.Samples {
		snaps[i] = s.Attr
	}
	return obs.MergeAttr(snaps)
}

// MeanThreads returns the mean execution-time-weighted thread count.
func (c *Cell) MeanThreads() float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.WeightedThreads
	}
	return stats.Mean(out)
}

// RunOne executes one repetition of a benchmark under a scheduler kind on a
// fresh machine and returns its sample. Seeds are per-repetition, not
// per-scheduler, so schedulers face identical noise in a given repetition.
//
// With cfg.Cache attached, the unit is first looked up by its content
// address (cache.go); a hit replays the stored sample — byte-identical to
// recomputing it — and a miss runs the simulation and commits the result
// before returning, so an interrupted campaign's completed units survive
// for the resuming run.
func RunOne(b workloads.Benchmark, k Kind, cfg Config, rep int) (RunSample, error) {
	u := soloUnit(b, k, cfg)
	u.rep = rep
	return u.runSolo()
}

// Matrix holds results for a set of benchmarks under a set of kinds.
type Matrix struct {
	Benches []string
	cells   map[string]map[Kind]*Cell
}

// Run executes the full campaign for the given benchmarks and kinds. The
// (benchmark, kind, rep) units are independent, so they all fan out across
// one cfg.Jobs-bounded pool; results are merged in input order, making the
// matrix identical to a sequential run. progress, if non-nil, is called
// from the calling goroutine as each cell is enqueued.
func Run(benches []workloads.Benchmark, kinds []Kind, cfg Config,
	progress func(bench string, k Kind)) (*Matrix, error) {
	var cp campaign
	mx := cp.matrix(benches, kinds, cfg, progress)
	if err := cp.run(cfg, "campaign", nil); err != nil {
		return nil, err
	}
	return mx, nil
}

// Cell returns the results of one (benchmark, kind) pair, or nil.
func (m *Matrix) Cell(bench string, k Kind) *Cell {
	row, ok := m.cells[bench]
	if !ok {
		return nil
	}
	return row[k]
}

// KindFromString parses a kind name (the inverse of Kind.String).
func KindFromString(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// BuildMatrix assembles a matrix from pre-computed cells (e.g. loaded from
// a results file). Bench order follows first appearance.
func BuildMatrix(cells []*Cell) *Matrix {
	mx := &Matrix{cells: make(map[string]map[Kind]*Cell)}
	for _, c := range cells {
		if _, ok := mx.cells[c.Bench]; !ok {
			mx.cells[c.Bench] = make(map[Kind]*Cell)
			mx.Benches = append(mx.Benches, c.Bench)
		}
		mx.cells[c.Bench][c.Kind] = c
	}
	return mx
}

// EachCell visits every cell in deterministic (bench, kind) order.
func (m *Matrix) EachCell(visit func(*Cell)) {
	for _, b := range m.Benches {
		for k := Kind(0); k < numKinds; k++ {
			if c := m.cells[b][k]; c != nil {
				visit(c)
			}
		}
	}
}

// Speedup returns mean(baseline)/mean(kind) for a benchmark: the paper's
// normalized speedup metric (higher is better, 1.0 = baseline parity).
func (m *Matrix) Speedup(bench string, k Kind) float64 {
	base := m.Cell(bench, KindBaseline)
	c := m.Cell(bench, k)
	if base == nil || c == nil {
		return 0
	}
	return stats.Speedup(stats.Mean(base.Times()), stats.Mean(c.Times()))
}

// OverheadRatio returns mean(kind overhead)/mean(baseline overhead): the
// normalized accumulated scheduling overhead of Figure 5 (lower is better).
func (m *Matrix) OverheadRatio(bench string, k Kind) float64 {
	base := m.Cell(bench, KindBaseline)
	c := m.Cell(bench, k)
	if base == nil || c == nil {
		return 0
	}
	baseMean := stats.Mean(base.Overheads())
	if baseMean == 0 {
		return 0
	}
	return stats.Mean(c.Overheads()) / baseMean
}
