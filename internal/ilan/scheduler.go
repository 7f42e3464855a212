package ilan

import (
	"fmt"
	"math"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Options tunes the scheduler. The zero value is not valid; use
// DefaultOptions. Each field is set away from its default by a scheduler
// kind, the oracle or an ablation (TestOptionsFieldsAreClassified).
type Options struct {
	// Granularity g is the thread-count step of the configuration search.
	// 0 selects the NUMA-node size, the paper's default.
	Granularity int
	// StrictFraction is the leading share of each node's tasks marked
	// NUMA-strict when the steal policy is full (the paper's yellow
	// tasks). Under the strict policy every task is strict.
	StrictFraction float64
	// Moldability enables the thread-count search. Disabling it pins every
	// loop to all cores (the paper's Figure 4 ablation) while keeping
	// hierarchical distribution and the steal-policy evaluation.
	Moldability bool
	// CounterGuided enables the paper's second future-work idea: use the
	// simulated performance counters to cut exploration short. After the
	// first (full-width) execution, a loop whose measured memory intensity
	// is below counterIntensityCutoff cannot profit from moldability, so
	// the search settles at full width immediately, skipping the narrow
	// probes that cost compute-bound loops like Matmul their slowdown.
	CounterGuided bool
	// FixedThreads, when positive, disables the search entirely and pins
	// every taskloop to that width with FixedStealFull as the policy —
	// the oracle-study configuration (what would ILAN achieve if it knew
	// the best width up front?).
	FixedThreads   int
	FixedStealFull bool
}

// The virtual-time prices of ILAN's own work and the counter-guided
// cutoff.
const (
	// selectCostSec is the base price of one configuration selection (PTT
	// lookup + bookkeeping), charged per loop submission.
	selectCostSec = 2e-6
	// selectPerThreadSec is the per-active-thread component of the
	// selection cost (node-mask assembly, per-thread bookkeeping).
	selectPerThreadSec = 100e-9
	// placePerTaskSec is the extra per-task cost of the hierarchical
	// distribution (computing the node mapping and strictness), on top of
	// the runtime's ordinary task-creation cost.
	placePerTaskSec = 80e-9
	// counterIntensityCutoff is the memory-intensity threshold below which
	// counter-guided selection skips exploration.
	counterIntensityCutoff = 0.35
)

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{
		Granularity:    0, // NUMA-node size
		StrictFraction: 0.75,
		Moldability:    true,
	}
}

// Scheduler is the ILAN scheduler. Create one per application run with New;
// its PTT starts cold and learns across the run's taskloop executions.
type Scheduler struct {
	opts  Options
	loops map[int]*loopState

	// Planning scratch, kept across calls so a settled loop plans without
	// allocating: widen's per-node free capacity, node order, mask and
	// core list, buildPlan's primary core per node, and the
	// topology-nearest node order from each node, all built for topo.
	topo     *topology.Machine
	capacity []int
	order    []int
	nodes    []int
	cores    []int
	primary  []int
	nearest  [][]int
}

var _ taskrt.Scheduler = (*Scheduler)(nil)

// New creates an ILAN scheduler, validating the options: StrictFraction
// must lie in [0, 1].
func New(opts Options) (*Scheduler, error) {
	if opts.StrictFraction < 0 || opts.StrictFraction > 1 {
		return nil, fmt.Errorf("ilan: StrictFraction %g out of [0,1]", opts.StrictFraction)
	}
	return &Scheduler{opts: opts, loops: make(map[int]*loopState)}, nil
}

// MustNew is New for options known valid at the call site; it panics on a
// validation error.
func MustNew(opts Options) *Scheduler {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements taskrt.Scheduler.
func (s *Scheduler) Name() string {
	switch {
	case s.opts.FixedThreads > 0:
		policy := "strict"
		if s.opts.FixedStealFull {
			policy = "full"
		}
		return fmt.Sprintf("ilan-fixed-%d-%s", s.opts.FixedThreads, policy)
	case !s.opts.Moldability:
		return "ilan-nomold"
	default:
		return "ilan"
	}
}

// granularity resolves g for a topology.
func (s *Scheduler) granularity(topo *topology.Machine) int {
	g := s.opts.Granularity
	if g == 0 {
		g = topo.NodeSize()
	}
	if g < 1 || g > topo.NumCores() {
		panic(fmt.Sprintf("ilan: granularity %d out of [1, %d]", g, topo.NumCores()))
	}
	return g
}

func (s *Scheduler) state(id int, topo *topology.Machine) *loopState {
	ls, ok := s.loops[id]
	if !ok {
		ls = &loopState{
			tried:     make(map[int]*cfgStats),
			nodeSec:   make([]float64, topo.NumNodes()),
			nodeTasks: make([]int, topo.NumNodes()),
		}
		s.loops[id] = ls
	}
	return ls
}

// Plan implements taskrt.Scheduler: it selects the configuration for this
// execution of the taskloop and builds the hierarchical distribution plan.
// The occupancy view makes the moldability machinery interference-aware in
// a second sense: node-mask selection and core assignment mold *around*
// co-running loops, never claiming a held core. On an empty occupancy the
// selection is exactly the single-program algorithm.
func (s *Scheduler) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	topo := rt.Topology()
	ls := s.state(spec.ID, topo)
	ls.k++

	var cfg Config
	switch {
	case s.opts.FixedThreads > 0:
		ls.phase = PhaseSettled
		cfg = s.widen(ls, topo, s.opts.FixedThreads, occ)
		cfg.StealFull = s.opts.FixedStealFull
		ls.chosen = cfg
	case s.opts.Moldability:
		cfg = s.selectMoldable(ls, topo, occ)
	default:
		cfg = s.selectFixed(ls, topo, occ)
	}
	ls.pending = cfg
	return s.buildPlan(rt.NewPlan(), spec, topo, cfg)
}

// selectFixed is the no-moldability path: always all cores; the steal
// policy is still evaluated (strict at k=1, full at k=2, winner after).
func (s *Scheduler) selectFixed(ls *loopState, topo *topology.Machine, occ *taskrt.Occupancy) Config {
	cfg := s.widen(ls, topo, topo.NumCores(), occ)
	switch ls.k {
	case 1:
		ls.phase = PhaseExplore
		cfg.StealFull = false
	case 2:
		ls.phase = PhaseEvalSteal
		cfg.StealFull = true
	default:
		ls.phase = PhaseSettled
		cfg.StealFull = ls.chosen.StealFull
	}
	return cfg
}

// selectMoldable runs the full ILAN selection state machine.
func (s *Scheduler) selectMoldable(ls *loopState, topo *topology.Machine, occ *taskrt.Occupancy) Config {
	switch ls.phase {
	case PhaseSettled:
		// Re-derive the mask so late changes in node history count, as the
		// paper performs node_mask selection on every configuration
		// selection; the thread count and policy stay fixed.
		cfg := s.widen(ls, topo, ls.chosen.Threads, occ)
		cfg.StealFull = ls.chosen.StealFull
		ls.chosen = cfg
		return cfg
	case PhaseEvalSteal:
		cfg := s.widen(ls, topo, ls.chosen.Threads, occ)
		cfg.StealFull = true
		return cfg
	default:
		threads, finished := s.nextThreads(ls, topo)
		cfg := s.widen(ls, topo, threads, occ)
		cfg.StealFull = false
		if finished {
			// The search concluded; this very execution doubles as the
			// steal_policy = full trial, as in the paper.
			ls.phase = PhaseEvalSteal
			ls.chosen = cfg
			if c, ok := ls.tried[cfg.Threads]; ok {
				ls.bestStrictSec = c.mean()
			} else {
				// The width the search settled on was never measured at
				// this exact count (occupancy clamped an earlier probe);
				// treat the strict reference as unknown so the full-policy
				// trial decides on its own measurement.
				ls.bestStrictSec = math.Inf(1)
			}
			cfg.StealFull = true
		}
		return cfg
	}
}

// nextThreads implements the paper's Algorithm 1 (taskloop configuration
// selection). It returns the thread count for execution k and whether the
// search finished (meaning the returned count is the final one).
func (s *Scheduler) nextThreads(ls *loopState, topo *topology.Machine) (int, bool) {
	g := s.granularity(topo)
	mMax := topo.NumCores()

	switch ls.k {
	case 1:
		return mMax, false
	case 2:
		if ls.skipExplore {
			// Counter-guided cutoff: the k=1 counters showed a
			// compute-bound loop; settle at full width without probing.
			return mMax, true
		}
		t := (mMax / 2 / g) * g
		if t < g {
			t = g
		}
		if t == mMax {
			// Only one possible configuration: search is trivially done.
			return mMax, true
		}
		return t, false
	}

	best, second := ls.fastestTwo()
	if second == nil {
		// Both initial runs used the same count (degenerate g): done.
		return best.threads, true
	}
	diff := best.threads - second.threads
	if diff < 0 {
		diff = -diff
	}
	lower := best.threads
	if second.threads < lower {
		lower = second.threads
	}
	midpoint := lower + (diff/2/g)*g

	// Special case at k=3: if the half-width configuration beat the full
	// width, probe the smallest possible width so that counts below
	// mMax/2 are reachable.
	if ls.k == 3 && best.threads < second.threads {
		if _, already := ls.tried[g]; already {
			return best.threads, true
		}
		return g, false
	}
	// Thread counts within one granularity step: the optimum is found.
	if diff <= g {
		return best.threads, true
	}
	// General case: probe the midpoint, unless it was already executed.
	if _, already := ls.tried[midpoint]; already {
		return best.threads, true
	}
	return midpoint, false
}

// widen builds the configuration for a thread count: node_mask selection
// (fastest node first, then topology-nearest) and the explicit core list.
// Only cores free under the occupancy view participate: per-node capacity
// is the node's free-core count, the thread count clamps to the machine's
// total free capacity, and fully-held nodes drop out of the mask. With an
// empty occupancy every capacity equals the node size and the selection is
// byte-for-byte the original single-program algorithm.
func (s *Scheduler) widen(ls *loopState, topo *topology.Machine, threads int, occ *taskrt.Occupancy) Config {
	if threads < 1 {
		panic(fmt.Sprintf("ilan: widen with %d threads", threads))
	}
	s.useTopology(topo)
	nNodes := topo.NumNodes()
	capacity := s.capacity
	totalFree := 0
	for n := 0; n < nNodes; n++ {
		capacity[n] = 0
		for _, c := range topo.CoresOfNode(n) {
			if !occ.Held(c) {
				capacity[n]++
			}
		}
		totalFree += capacity[n]
	}
	if totalFree == 0 {
		panic("ilan: widen with every core held by co-running loops")
	}
	if threads > totalFree {
		threads = totalFree
	}
	fastest := -1
	var bestSec float64
	freeNodes := 0
	for n := 0; n < nNodes; n++ {
		if capacity[n] == 0 {
			continue
		}
		freeNodes++
		if sec := ls.meanNodeSec(n); fastest < 0 || sec < bestSec {
			bestSec = sec
			fastest = n
		}
	}
	// Walk topology-nearest from the fastest node, accumulating free
	// capacity until the thread count fits; that walk is the node mask.
	order := s.nearest[fastest]
	nodesNeeded := 0
	for acc := 0; acc < threads; nodesNeeded++ {
		acc += capacity[order[nodesNeeded]]
	}
	if nodesNeeded == freeNodes {
		// Configurations spanning every available node keep the natural
		// node order: the mask selects nothing, and reordering would only
		// rotate the contiguous task-to-node mapping away from the data
		// layout the loop's first-touch initialization established.
		order = s.order[:0]
		for n := 0; n < nNodes; n++ {
			if capacity[n] > 0 {
				order = append(order, n)
			}
		}
	}
	// The mask is the first nodesNeeded nodes of the walk that have free
	// capacity; the cores are their free cores, in that order.
	nodes := s.nodes[:0]
	cores := s.cores[:0]
	remaining := threads
	for _, n := range order {
		if remaining == 0 {
			break
		}
		if capacity[n] == 0 {
			continue
		}
		nodes = append(nodes, n)
		for _, c := range topo.CoresOfNode(n) {
			if remaining == 0 {
				break
			}
			if occ.Held(c) {
				continue
			}
			cores = append(cores, c)
			remaining--
		}
	}
	return ls.config(threads, nodes, cores)
}

// useTopology sizes the planning scratch for topo, dropping tables built
// for another machine. Each buffer is sized for its largest use, so the
// appends in widen never move it.
func (s *Scheduler) useTopology(topo *topology.Machine) {
	if s.topo == topo {
		return
	}
	s.topo = topo
	nNodes := topo.NumNodes()
	s.capacity = make([]int, nNodes)
	s.order = make([]int, 0, nNodes)
	s.nodes = make([]int, 0, nNodes)
	s.cores = make([]int, 0, topo.NumCores())
	s.primary = make([]int, nNodes)
	s.nearest = make([][]int, nNodes)
	for n := range s.nearest {
		s.nearest[n] = topo.NearestNodes(n)
	}
}

// Observe implements taskrt.Scheduler: it feeds the measurement back into
// the PTT and advances the search state machine.
func (s *Scheduler) Observe(rt *taskrt.Runtime, spec *taskrt.LoopSpec, st *taskrt.LoopStats) {
	topo := rt.Topology()
	ls := s.state(spec.ID, topo)
	for n := 0; n < topo.NumNodes(); n++ {
		ls.nodeSec[n] += st.NodeTaskSeconds[n]
		ls.nodeTasks[n] += st.NodeTasks[n]
	}
	sec := st.Elapsed.Seconds()
	plannedPhase := ls.phase
	ls.history = append(ls.history, ExecRecord{
		K: ls.k, Cfg: ls.pending, Phase: plannedPhase, ElapsedSec: sec,
	})

	switch ls.phase {
	case PhaseExplore:
		c, ok := ls.tried[ls.pending.Threads]
		if !ok {
			c = &cfgStats{threads: ls.pending.Threads}
			ls.tried[ls.pending.Threads] = c
		}
		c.totalSec += sec
		c.count++
		if s.opts.CounterGuided && ls.k == 1 &&
			st.MemoryIntensity() < counterIntensityCutoff {
			ls.skipExplore = true
		}
	case PhaseEvalSteal:
		ls.chosen.StealFull = sec < ls.bestStrictSec
		ls.phase = PhaseSettled
	}

	// The fixed path's strict reference time is its k=1 execution.
	if !s.opts.Moldability && ls.k == 1 {
		ls.bestStrictSec = sec
	}

	s.obsObserve(rt, spec, ls, plannedPhase, sec)
}

// obsObserve records the completed execution into the attached
// observability collector: the full decision (loop, phase, chosen triple,
// measured score, virtual completion time) into the trace ring, plus the
// ilan_* counters and gauge. Costs one nil check when observability is off.
func (s *Scheduler) obsObserve(rt *taskrt.Runtime, spec *taskrt.LoopSpec, ls *loopState, plannedPhase Phase, score float64) {
	run := rt.Obs()
	if run == nil {
		return
	}
	run.Decisions().Record(obs.Decision{
		TimeSec:   rt.Machine().Engine().Now().Seconds(),
		LoopID:    spec.ID,
		K:         ls.k,
		Program:   spec.Program,
		Phase:     plannedPhase.String(),
		Threads:   ls.pending.Threads,
		NodeMask:  ls.pending.Mask(),
		StealFull: ls.pending.StealFull,
		Score:     score,
	})
	run.Add("ilan_decisions_total", 1)
	if ls.k == 1 || ls.phase != ls.obsPhase {
		run.Add("ilan_phase_transitions_total"+obs.Label("to", ls.phase.String()), 1)
	}
	ls.obsPhase = ls.phase
	run.Set("ilan_chosen_threads"+obs.Label("loop", spec.ID), float64(ls.pending.Threads))
}

// ChosenConfig exposes the current configuration for a loop ID
// (diagnostics and tests). ok is false for loops the
// scheduler has not seen.
func (s *Scheduler) ChosenConfig(loopID int) (cfg Config, phase Phase, ok bool) {
	ls, found := s.loops[loopID]
	if !found {
		return Config{}, 0, false
	}
	if ls.phase == PhaseSettled {
		return ls.chosen, ls.phase, true
	}
	return ls.pending, ls.phase, true
}

// Regret quantifies what a loop's exploration cost: the summed extra
// seconds of its pre-settlement executions relative to the mean settled
// execution time, which is the second return value. ok is false when the
// loop has no settled executions to compare against.
func (s *Scheduler) Regret(loopID int) (exploration, settledMean float64, ok bool) {
	ls, found := s.loops[loopID]
	if !found {
		return 0, 0, false
	}
	var settledSum float64
	var settledN int
	for _, rec := range ls.history {
		if rec.Phase == PhaseSettled {
			settledSum += rec.ElapsedSec
			settledN++
		}
	}
	if settledN == 0 {
		return 0, 0, false
	}
	mean := settledSum / float64(settledN)
	var extra float64
	for _, rec := range ls.history {
		if rec.Phase != PhaseSettled {
			extra += rec.ElapsedSec - mean
		}
	}
	return extra, mean, true
}

// History returns the execution records of a loop in order (diagnostics).
func (s *Scheduler) History(loopID int) []ExecRecord {
	ls, found := s.loops[loopID]
	if !found {
		return nil
	}
	return append([]ExecRecord(nil), ls.history...)
}

// TriedConfigs returns the PTT's (threads -> mean seconds) measurements for
// a loop, for inspection.
func (s *Scheduler) TriedConfigs(loopID int) map[int]float64 {
	ls, found := s.loops[loopID]
	if !found {
		return nil
	}
	out := make(map[int]float64, len(ls.tried))
	for th, c := range ls.tried {
		out[th] = c.mean()
	}
	return out
}
