// Package taskrt is the simulated tasking runtime: the counterpart of the
// LLVM OpenMP runtime's taskloop machinery that ILAN extends.
//
// It provides threads pinned 1:1 to simulated cores, a work-stealing deque
// per thread, the taskloop construct with an end-of-loop barrier, and
// pluggable scheduling via the Scheduler interface. All scheduling costs
// (task creation, dispatch, steal scans, barriers, scheduler bookkeeping)
// are charged in virtual time and accounted separately so that the paper's
// scheduling-overhead comparison (Figure 5) can be reproduced.
package taskrt

import (
	"fmt"
	"math"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
)

// DemandFunc describes the work of iterations [lo, hi) of a taskloop: the
// private compute seconds and the memory accesses the chunk performs.
// Implementations must be deterministic in (lo, hi): the runtime may call
// them in any order. The returned slice is valid until the next call of
// the same function, which may reuse its backing array; the runtime hands
// it straight to Machine.Exec, which resolves it at once. Because of that
// reuse, a LoopSpec is not safe for concurrent use.
type DemandFunc func(lo, hi int) (computeSec float64, accesses []memsys.Access)

// LoopSpec is a static description of one source-level taskloop. The same
// spec is executed many times over an application run (once per timestep);
// its ID is the identity the ILAN PTT keys on, like the construct's code
// address in the LLVM implementation.
type LoopSpec struct {
	ID     int
	Name   string
	Iters  int // logical loop iterations
	Tasks  int // number of task chunks the loop is partitioned into
	Demand DemandFunc
	// Program names the program this loop belongs to in a multiprogrammed
	// run ("" for a solo program). The runtime stamps it onto the plan's
	// Owner and tags traces, decisions, and attribution with it, so
	// co-running programs stay distinguishable in every export.
	Program string
	// Hint optionally gives a programmer-provided affinity hint for
	// iterations [lo, hi): the NUMA node whose memory they mostly touch,
	// or -1 for no preference. It models the OpenMP 5.0/6.0 affinity
	// clause the paper discusses in §3.4; only affinity-style schedulers
	// consult it, and they treat it as a hint, not a binding constraint.
	Hint func(lo, hi int) int
}

// Validate checks a spec for consistency.
func (l *LoopSpec) Validate() error {
	switch {
	case l == nil:
		return fmt.Errorf("taskrt: nil loop spec")
	case l.Iters <= 0:
		return fmt.Errorf("taskrt: loop %q has %d iterations", l.Name, l.Iters)
	case l.Tasks <= 0:
		return fmt.Errorf("taskrt: loop %q has %d tasks", l.Name, l.Tasks)
	case l.Tasks > l.Iters:
		return fmt.Errorf("taskrt: loop %q has more tasks (%d) than iterations (%d)",
			l.Name, l.Tasks, l.Iters)
	case l.Demand == nil:
		return fmt.Errorf("taskrt: loop %q has nil demand", l.Name)
	}
	return nil
}

// ChunkBounds returns the iteration range of task t when Iters iterations
// are split into Tasks near-equal contiguous chunks.
func (l *LoopSpec) ChunkBounds(t int) (lo, hi int) {
	lo = t * l.Iters / l.Tasks
	hi = (t + 1) * l.Iters / l.Tasks
	return lo, hi
}

// Task is one schedulable chunk of a taskloop execution.
type Task struct {
	Lo, Hi int
	// Strict marks the task NUMA-strict: it may only execute on (and be
	// stolen within) its home node.
	Strict bool
	// Home is the NUMA node the task was assigned to by the plan.
	Home int
}

// TaskPlacement is a scheduler's initial placement decision for one task.
type TaskPlacement struct {
	Lo, Hi int
	Core   int  // deque the task is initially enqueued on
	Strict bool // disallow inter-node stealing for this task
}

// StealMode selects the victim-search behaviour of idle threads.
type StealMode uint8

const (
	// StealHierarchical searches victims inside the thief's NUMA node
	// first; victims on other nodes are tried only when the thief's whole
	// node is out of work, and only non-Strict tasks can cross nodes
	// (requires Plan.InterNodeSteal).
	StealHierarchical StealMode = iota
	// StealFlat searches a random permutation of all active cores with no
	// topology awareness — the default LLVM behaviour.
	StealFlat
	// StealOff disables stealing entirely (static work-sharing).
	StealOff
)

// String names the steal mode.
func (s StealMode) String() string {
	switch s {
	case StealHierarchical:
		return "hierarchical"
	case StealFlat:
		return "flat"
	case StealOff:
		return "off"
	default:
		return fmt.Sprintf("stealmode(%d)", uint8(s))
	}
}

// Plan is a scheduler's complete decision for one taskloop execution.
type Plan struct {
	// Active lists the cores whose threads participate in this loop.
	Active []int
	// Place gives the initial placement of every task. Iteration ranges
	// must tile [0, Iters) in order.
	Place []TaskPlacement
	// Mode selects the stealing behaviour.
	Mode StealMode
	// InterNodeSteal permits non-strict tasks to cross nodes under
	// StealHierarchical (ILAN's steal_policy = full).
	InterNodeSteal bool
	// SelectOverheadSec is extra scheduler bookkeeping time (PTT lookup,
	// configuration selection) charged to the master before task creation.
	SelectOverheadSec float64
	// StealChunk is the number of tasks a successful steal transfers
	// (default 1). Values > 1 move the extra tasks into the thief's own
	// deque — the chunked-steal mechanic of shepherd-style hierarchical
	// schedulers (Olivier et al.), which amortizes steal operations.
	StealChunk int
	// Owner names the program the plan schedules for. The runtime stamps
	// it from LoopSpec.Program at submission; schedulers need not set it.
	Owner string

	// issued marks a plan Runtime.NewPlan handed out, which the runtime
	// recycles once its execution completes.
	issued bool
}

// Validate checks the plan against a spec, the machine's core count, and
// the cores concurrently live loop executions already hold. occ may be nil
// (no co-runners); a plan that claims a held core is invalid — concurrent
// plans must be core-disjoint, the invariant multiprogrammed execution
// rests on (threads are bound to exactly one execution at a time).
func (p *Plan) Validate(spec *LoopSpec, numCores int, occ *Occupancy) error {
	if p.Mode > StealOff {
		return fmt.Errorf("taskrt: plan for %q has unknown steal mode %d", spec.Name, p.Mode)
	}
	if p.StealChunk < 0 {
		return fmt.Errorf("taskrt: plan for %q has negative steal chunk %d", spec.Name, p.StealChunk)
	}
	if !(p.SelectOverheadSec >= 0) || math.IsInf(p.SelectOverheadSec, 1) {
		// Negative overhead would schedule the task release in the past
		// (an engine panic far from the cause); NaN would poison virtual
		// time entirely.
		return fmt.Errorf("taskrt: plan for %q has invalid select overhead %g",
			spec.Name, p.SelectOverheadSec)
	}
	if len(p.Active) == 0 {
		return fmt.Errorf("taskrt: plan for %q has no active cores", spec.Name)
	}
	// A bitset on the stack covers machines up to 256 cores, so validating
	// a plan allocates nothing on the paper platform.
	var small [4]uint64
	activeSet := small[:]
	if words := (numCores + 63) / 64; words > len(small) {
		activeSet = make([]uint64, words)
	}
	isActive := func(c int) bool { return activeSet[c/64]&(1<<(c%64)) != 0 }
	for _, c := range p.Active {
		if c < 0 || c >= numCores {
			return fmt.Errorf("taskrt: plan active core %d out of range", c)
		}
		if isActive(c) {
			return fmt.Errorf("taskrt: plan lists core %d twice", c)
		}
		if occ.Held(c) {
			return fmt.Errorf("taskrt: plan for %q claims core %d, which a concurrently live loop holds",
				spec.Name, c)
		}
		activeSet[c/64] |= 1 << (c % 64)
	}
	if len(p.Place) == 0 {
		return fmt.Errorf("taskrt: plan for %q has no tasks", spec.Name)
	}
	next := 0
	for i, tp := range p.Place {
		if tp.Lo != next || tp.Hi <= tp.Lo {
			return fmt.Errorf("taskrt: plan task %d range [%d,%d) does not tile (expected lo=%d)",
				i, tp.Lo, tp.Hi, next)
		}
		if tp.Core < 0 || tp.Core >= numCores || !isActive(tp.Core) {
			return fmt.Errorf("taskrt: plan task %d placed on inactive core %d", i, tp.Core)
		}
		next = tp.Hi
	}
	if next != spec.Iters {
		return fmt.Errorf("taskrt: plan covers %d iterations, spec has %d", next, spec.Iters)
	}
	return nil
}

// LoopStats is what the runtime measured for one taskloop execution; it is
// handed to the scheduler's Observe hook (the input to ILAN's PTT), the
// probe's LoopDone and the SubmitLoop done callback. It is valid during
// those calls only: the runtime reuses it, per-node slices included, for
// a later execution, so a caller that keeps it must copy it.
type LoopStats struct {
	Elapsed sim.Duration // wall time from submission to barrier
	// NodeTaskSeconds / NodeTasks give per-NUMA-node execution totals;
	// their ratio is the per-node mean task duration ILAN uses to rank
	// node speed.
	NodeTaskSeconds []float64
	NodeTasks       []int
	StealsLocal     int
	StealsRemote    int
	StealAttempts   int
	OverheadSec     float64 // scheduling overhead charged during this loop
	ActiveThreads   int
	// ComputeSeconds / MemorySeconds are the loop's simulated
	// performance-counter deltas (the PERF_COUNTERS facility): total
	// compute-component and memory-component time of the loop's tasks.
	// Their ratio is the loop's memory intensity, which counter-guided
	// selection uses to skip exploration (paper future work).
	ComputeSeconds float64
	MemorySeconds  float64
}

// MemoryIntensity returns MemorySeconds / (ComputeSeconds+MemorySeconds),
// or 0 when nothing was measured.
func (s *LoopStats) MemoryIntensity() float64 {
	total := s.ComputeSeconds + s.MemorySeconds
	if total == 0 {
		return 0
	}
	return s.MemorySeconds / total
}

// Utilization returns the fraction of the loop's (threads x elapsed)
// core-time that was spent executing tasks — the load-balance quality of
// the execution (1.0 = perfectly packed, low values = idle tails or
// stragglers).
func (s *LoopStats) Utilization() float64 {
	if s.Elapsed <= 0 || s.ActiveThreads == 0 {
		return 0
	}
	var busy float64
	for _, sec := range s.NodeTaskSeconds {
		busy += sec
	}
	u := busy / (float64(s.Elapsed) * float64(s.ActiveThreads))
	if u > 1 {
		u = 1
	}
	return u
}

// MeanNodeTaskSec returns the mean task duration on a node, or +Inf if the
// node executed nothing (so that idle nodes rank last).
func (s *LoopStats) MeanNodeTaskSec(node int) float64 {
	if s.NodeTasks[node] == 0 {
		return inf
	}
	return s.NodeTaskSeconds[node] / float64(s.NodeTasks[node])
}

const inf = 1e300

// Occupancy is a scheduler's view of the machine's space-sharing state at
// Plan time: which cores concurrently live loop executions already hold.
// A plan must keep its Active set inside the free cores (Plan.Validate
// enforces the disjointness); interference- and locality-aware schedulers
// additionally mold their width and node mask around the co-runners.
//
// The runtime reuses one Occupancy across Plan calls, so schedulers must
// not retain it past the call. All methods are nil-safe: a nil *Occupancy
// means an empty machine (every core free), which is what solo programs
// and scheduler unit tests see.
type Occupancy struct {
	held []bool
}

// NewOccupancy builds an occupancy view over numCores cores with the given
// cores held — for scheduler tests; the runtime assembles its own.
func NewOccupancy(numCores int, held ...int) *Occupancy {
	o := &Occupancy{held: make([]bool, numCores)}
	for _, c := range held {
		if c >= 0 && c < numCores {
			o.held[c] = true
		}
	}
	return o
}

// Hold marks a core as held. Out-of-range cores are ignored. Used by
// independent verifiers (e.g. simcheck) that rebuild the occupancy from
// their own books; the runtime assembles its view internally.
func (o *Occupancy) Hold(core int) {
	if o == nil || core < 0 || core >= len(o.held) {
		return
	}
	o.held[core] = true
}

// Held reports whether a concurrently live loop execution holds the core.
// Out-of-range cores report free (Plan.Validate range-checks separately).
func (o *Occupancy) Held(core int) bool {
	return o != nil && core >= 0 && core < len(o.held) && o.held[core]
}

// NumCores returns the size of the view (0 for the nil view, which is
// unbounded: every core free).
func (o *Occupancy) NumCores() int {
	if o == nil {
		return 0
	}
	return len(o.held)
}

// Scheduler decides task placement and observes results. Implementations
// live in internal/sched (baseline, work-sharing) and internal/ilan.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Plan is invoked when the master encounters a taskloop. occ is the
	// machine's occupancy at submission (nil-safe; empty for solo runs):
	// the returned plan's Active set must avoid every held core, and on an
	// empty occupancy the plan must be identical to the scheduler's
	// single-program behaviour. A plan filled from rt.NewPlan is reused by
	// the runtime once the execution completes.
	Plan(rt *Runtime, spec *LoopSpec, occ *Occupancy) *Plan
	// Observe is invoked after the loop's barrier with measured statistics.
	Observe(rt *Runtime, spec *LoopSpec, st *LoopStats)
}
