package ilan

import (
	"fmt"
	"math"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Options tunes the scheduler. The zero value is not valid; use
// DefaultOptions.
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
	// SelectCostSec is the base virtual-time price of one configuration
	// selection (PTT lookup + bookkeeping), charged per loop submission.
	SelectCostSec float64
	// SelectPerThreadSec is the per-active-thread component of the
	// selection cost (node-mask assembly, per-thread bookkeeping).
	SelectPerThreadSec float64
	// PlacePerTaskSec is the extra per-task cost of the hierarchical
	// distribution (computing the node mapping and strictness), on top of
	// the runtime's ordinary task-creation cost.
	PlacePerTaskSec float64
	// Objective selects the metric the PTT optimizes. The paper uses
	// execution time and proposes energy efficiency as future work; both
	// are implemented (plus energy-delay product).
	Objective Objective
	// CounterGuided enables the paper's second future-work idea: use the
	// simulated performance counters to cut exploration short. After the
	// first (full-width) execution, a loop whose measured memory intensity
	// is below CounterIntensityCutoff cannot profit from moldability, so
	// the search settles at full width immediately, skipping the narrow
	// probes that cost compute-bound loops like Matmul their slowdown.
	CounterGuided bool
	// CounterIntensityCutoff is the memory-intensity threshold below which
	// counter-guided selection skips exploration (default 0.35).
	CounterIntensityCutoff float64
	// AdaptiveStrictFraction enables the online tuning of inter-node task
	// migration levels the paper describes in §3.3: under the full steal
	// policy, a loop whose green (stealable) tasks all migrate gets more
	// of them next time (more balancing headroom), and a loop whose green
	// tasks never migrate gets fewer (more locality). The fraction moves
	// in steps of 0.1 within [0.25, 1.0].
	AdaptiveStrictFraction bool
	// FixedThreads, when positive, disables the search entirely and pins
	// every taskloop to that width with FixedStealFull as the policy —
	// the oracle-study configuration (what would ILAN achieve if it knew
	// the best width up front?).
	FixedThreads   int
	FixedStealFull bool
}

// Objective is the metric the configuration search minimizes.
type Objective uint8

const (
	// ObjectiveTime minimizes taskloop execution time (the paper's setup).
	ObjectiveTime Objective = iota
	// ObjectiveEnergy minimizes energy per taskloop execution.
	ObjectiveEnergy
	// ObjectiveEDP minimizes the energy-delay product.
	ObjectiveEDP
	// numObjectives bounds Objective validation in New.
	numObjectives
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveTime:
		return "time"
	case ObjectiveEnergy:
		return "energy"
	case ObjectiveEDP:
		return "edp"
	default:
		return fmt.Sprintf("objective(%d)", uint8(o))
	}
}

// score extracts the objective value from a loop measurement. Units:
// seconds (time), joules (energy), joule-seconds (EDP) — the EDP and time
// cases go through Elapsed.Seconds() so the seconds contract is explicit
// rather than an implicit property of the sim.Time representation.
func (o Objective) score(st *taskrt.LoopStats) float64 {
	switch o {
	case ObjectiveEnergy:
		return st.EnergyJoules
	case ObjectiveEDP:
		return st.EnergyJoules * st.Elapsed.Seconds()
	default:
		return st.Elapsed.Seconds()
	}
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{
		Granularity:            0, // NUMA-node size
		StrictFraction:         0.75,
		Moldability:            true,
		SelectCostSec:          2e-6,
		SelectPerThreadSec:     100e-9,
		PlacePerTaskSec:        80e-9,
		CounterIntensityCutoff: 0.35,
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
// must lie in [0, 1] and Objective must be one of the defined objectives.
// Previously an out-of-range Objective was silently treated as
// ObjectiveTime; construction now fails loudly instead.
func New(opts Options) (*Scheduler, error) {
	if opts.StrictFraction < 0 || opts.StrictFraction > 1 {
		return nil, fmt.Errorf("ilan: StrictFraction %g out of [0,1]", opts.StrictFraction)
	}
	if opts.Objective >= numObjectives {
		return nil, fmt.Errorf("ilan: unknown objective %d (valid: time, energy, edp)", opts.Objective)
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
	plan := s.buildPlan(rt.NewPlan(), spec, topo, cfg, s.strictFraction(ls))
	if cfg.StealFull {
		greens := 0
		for _, tp := range plan.Place {
			if !tp.Strict {
				greens++
			}
		}
		ls.lastGreens = greens
	} else {
		ls.lastGreens = 0
	}
	return plan
}

// strictFraction resolves the strict/stealable split for a loop: the
// adapted per-loop value when migration tuning is on, the global option
// otherwise. Adapted values come off the integer-percent grid, so equal
// tuning states always yield bit-equal fractions.
func (s *Scheduler) strictFraction(ls *loopState) float64 {
	if s.opts.AdaptiveStrictFraction && ls.strictFracPct > 0 {
		return float64(ls.strictFracPct) / 100
	}
	return s.opts.StrictFraction
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
	score := s.opts.Objective.score(st)
	plannedPhase := ls.phase
	ls.history = append(ls.history, ExecRecord{
		K: ls.k, Cfg: ls.pending, Phase: plannedPhase, ElapsedSec: float64(st.Elapsed),
		Score: score,
	})

	switch ls.phase {
	case PhaseExplore:
		c, ok := ls.tried[ls.pending.Threads]
		if !ok {
			c = &cfgStats{threads: ls.pending.Threads}
			ls.tried[ls.pending.Threads] = c
		}
		c.totalSec += score
		c.count++
		if s.opts.CounterGuided && ls.k == 1 &&
			st.MemoryIntensity() < s.opts.CounterIntensityCutoff {
			ls.skipExplore = true
		}
	case PhaseEvalSteal:
		ls.fullSec = score
		ls.chosen.StealFull = ls.fullSec < ls.bestStrictSec
		ls.phase = PhaseSettled
	case PhaseSettled:
		// Keep refining node history (already accumulated above) and,
		// when enabled, tune the migration level from the observed
		// remote-steal pressure.
		if s.opts.AdaptiveStrictFraction && ls.pending.StealFull {
			// The ±0.1 steps run on an integer-percent grid: float
			// arithmetic (0.75 -> 0.8500000000000001 -> ...) would drift
			// off the documented 0.1 grid within [0.25, 1.0].
			pct := ls.strictFracPct
			if pct == 0 {
				pct = int(math.Round(100 * s.opts.StrictFraction))
			}
			switch {
			case ls.lastGreens > 0 && st.StealsRemote >= ls.lastGreens:
				// Every green task migrated: the load balancer is
				// starved; release more tasks.
				pct -= 10
			case st.StealsRemote == 0:
				// No migration happened: reclaim locality.
				pct += 10
			}
			if pct < 25 {
				pct = 25
			}
			if pct > 100 {
				pct = 100
			}
			ls.strictFracPct = pct
		}
	}

	// The fixed path's strict reference score is its k=1 execution.
	if !s.opts.Moldability && ls.k == 1 {
		ls.bestStrictSec = score
	}

	s.obsObserve(rt, spec, ls, plannedPhase, score)
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
// objective value of its pre-settlement executions relative to the mean
// settled execution. Both return values are in the unit of the active
// Objective — seconds under ObjectiveTime, joules under ObjectiveEnergy,
// joule-seconds under ObjectiveEDP — so the regret is always measured in
// the quantity the search actually optimized. ok is false when the loop
// has no settled executions to compare against.
func (s *Scheduler) Regret(loopID int) (exploration, settledMean float64, ok bool) {
	ls, found := s.loops[loopID]
	if !found {
		return 0, 0, false
	}
	var settledSum float64
	var settledN int
	for _, rec := range ls.history {
		if rec.Phase == PhaseSettled {
			settledSum += rec.Score
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
			extra += rec.Score - mean
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
