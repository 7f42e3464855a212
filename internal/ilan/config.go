// Package ilan implements the paper's contribution: the Interference- and
// Locality-Aware NUMA scheduler for taskloops.
//
// For every distinct taskloop (identified by its LoopSpec ID, the analogue
// of the construct's code address), ILAN maintains a Performance Trace
// Table (PTT) of measured execution times per configuration and explores
// the configuration space online:
//
//   - num_threads is searched with the binary-search-like procedure of the
//     paper's Algorithm 1, in steps of the thread-count granularity g
//     (default: the NUMA-node size).
//   - node_mask is re-derived on every selection: the historically fastest
//     node first, then topology-nearest nodes (same socket before cross
//     socket).
//   - steal_policy stays strict (intra-node stealing only) during the
//     search; once the search finishes, one execution evaluates full
//     (inter-node) stealing and the faster policy is kept.
//
// Task distribution is hierarchical: tasks are mapped contiguously by
// iteration index onto the active nodes, enqueued on each node's primary
// thread, spread within the node by work-stealing, and only a trailing
// fraction of each node's tasks may ever cross nodes (and only under the
// full steal policy, and only when the stealing node has run dry).
package ilan

import (
	"fmt"
	"slices"
	"sort"
)

// Config is one taskloop configuration: the paper's
// (num_threads, node_mask, steal_policy) triple.
type Config struct {
	Threads   int
	Nodes     []int // active NUMA nodes, fastest first
	Cores     []int // active cores, grouped by node in Nodes order
	StealFull bool  // steal_policy: true = full, false = strict
}

// Mask returns the node mask as a bitmap, as the paper defines node_mask.
func (c Config) Mask() uint64 {
	var m uint64
	for _, n := range c.Nodes {
		m |= 1 << uint(n)
	}
	return m
}

// String renders the configuration compactly.
func (c Config) String() string {
	policy := "strict"
	if c.StealFull {
		policy = "full"
	}
	return fmt.Sprintf("{threads=%d mask=%#x steal=%s}", c.Threads, c.Mask(), policy)
}

// Phase is the lifecycle stage of a taskloop's configuration search.
type Phase uint8

const (
	// PhaseExplore: Algorithm 1 is still searching thread counts.
	PhaseExplore Phase = iota
	// PhaseEvalSteal: thread search finished; the next execution evaluates
	// steal_policy = full.
	PhaseEvalSteal
	// PhaseSettled: the configuration is final.
	PhaseSettled
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseExplore:
		return "explore"
	case PhaseEvalSteal:
		return "eval-steal"
	case PhaseSettled:
		return "settled"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// cfgStats accumulates measured times for one thread count (strict policy).
type cfgStats struct {
	threads  int
	totalSec float64
	count    int
}

func (c *cfgStats) mean() float64 { return c.totalSec / float64(c.count) }

// loopState is the PTT row set plus search state for one taskloop.
type loopState struct {
	k     int // executions started (1-based)
	phase Phase

	tried   map[int]*cfgStats // strict-policy measurements by thread count
	pending Config            // configuration of the in-flight execution

	chosen        Config  // final/current best configuration
	bestStrictSec float64 // mean time of chosen thread count under strict

	// Per-node performance history (for node_mask selection).
	nodeSec   []float64
	nodeTasks []int

	// skipExplore is set by counter-guided selection when the first
	// execution's memory intensity shows the loop cannot profit from
	// moldability; the search then settles at full width immediately.
	skipExplore bool

	// history records every execution for diagnostics (Regret, History).
	history []ExecRecord

	// obsPhase is the phase after the previous Observe, used by the
	// observability hook to count phase transitions.
	obsPhase Phase
}

// ExecRecord is one taskloop execution as the PTT saw it.
type ExecRecord struct {
	K          int
	Cfg        Config
	Phase      Phase // phase during which the execution was planned
	ElapsedSec float64
}

// fastestTwo returns the best and second-best tried configurations by mean
// time, with deterministic tie-breaking on thread count (more threads win a
// tie, so ties do not spuriously trigger the "smaller was faster" branch).
func (ls *loopState) fastestTwo() (best, second *cfgStats) {
	all := make([]*cfgStats, 0, len(ls.tried))
	for _, c := range ls.tried {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mean() != all[j].mean() {
			return all[i].mean() < all[j].mean()
		}
		return all[i].threads > all[j].threads
	})
	if len(all) > 0 {
		best = all[0]
	}
	if len(all) > 1 {
		second = all[1]
	}
	return best, second
}

// config returns the configuration for a thread count, node mask and core
// list. Configurations are retained (pending, chosen, history) and never
// written after this, so the slices of the loop's previous configuration
// are shared when they hold the same values — the common case once the
// search settles, where the re-derived mask rarely moves — and nodes and
// cores, which are the caller's scratch, are copied otherwise.
func (ls *loopState) config(threads int, nodes, cores []int) Config {
	for _, prev := range []*Config{&ls.pending, &ls.chosen} {
		if slices.Equal(prev.Nodes, nodes) && slices.Equal(prev.Cores, cores) {
			return Config{Threads: threads, Nodes: prev.Nodes, Cores: prev.Cores}
		}
	}
	return Config{Threads: threads, Nodes: slices.Clone(nodes), Cores: slices.Clone(cores)}
}

// meanNodeSec returns the historical mean task duration on a node, or +Inf
// for nodes with no history.
func (ls *loopState) meanNodeSec(node int) float64 {
	if ls.nodeTasks[node] == 0 {
		return 1e300
	}
	return ls.nodeSec[node] / float64(ls.nodeTasks[node])
}
