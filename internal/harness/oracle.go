package harness

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// OraclePoint is one fixed configuration's measured performance.
type OraclePoint struct {
	Threads   int
	StealFull bool
	MeanSec   float64
}

// OracleResult summarizes one benchmark's oracle study.
type OracleResult struct {
	Bench string
	// Points holds every fixed configuration evaluated.
	Points []OraclePoint
	// Best is the fastest fixed configuration (the "oracle").
	Best OraclePoint
	// ILANSec / BaselineSec are the adaptive scheduler's and the default
	// scheduler's mean times on the same machines.
	ILANSec     float64
	BaselineSec float64
}

// Efficiency returns how much of the oracle's performance ILAN's online
// search achieves (oracle time / ILAN time; 1.0 = matches the oracle,
// which includes the oracle paying no exploration cost).
func (r *OracleResult) Efficiency() float64 {
	if r.ILANSec == 0 {
		return 0
	}
	return r.Best.MeanSec / r.ILANSec
}

// RunOracle evaluates every fixed width (in granularity steps of the NUMA
// node size) under both steal policies for each benchmark, and compares the
// best fixed configuration against ILAN's online search — quantifying both
// the headroom of Algorithm 1's non-exhaustive exploration and its cost.
// The fixed points, ILAN and baseline units of every benchmark run as one
// campaign on the same machines (disturbance and model overrides
// included); points keep their enumeration order. progress, if non-nil, is
// called from the calling goroutine as each configuration is enqueued.
func RunOracle(benches []workloads.Benchmark, cfg Config,
	progress func(bench string, threads int, full bool)) ([]OracleResult, error) {
	topo := topology.MustNew(cfg.topoSpec())
	g := topo.NodeSize()
	var pts []fixedConfig
	for threads := g; threads <= topo.NumCores(); threads += g {
		for _, full := range []bool{false, true} {
			pts = append(pts, fixedConfig{Threads: threads, StealFull: full})
		}
	}
	type benchCells struct {
		fixed       []*Cell
		ilan, basel *Cell
	}
	var cp campaign
	cells := make([]benchCells, len(benches))
	for bi, b := range benches {
		for _, p := range pts {
			if progress != nil {
				progress(b.Name, p.Threads, p.StealFull)
			}
			u := fixedUnit(b, p, cfg)
			cells[bi].fixed = append(cells[bi].fixed, cp.soloCell(u.name(), u))
		}
		cells[bi].ilan = cp.soloCell(b.Name+"/ilan", soloUnit(b, KindILAN, cfg))
		cells[bi].basel = cp.soloCell(b.Name+"/baseline", soloUnit(b, KindBaseline, cfg))
	}
	if err := cp.run(cfg, "oracle", nil); err != nil {
		return nil, err
	}
	out := make([]OracleResult, 0, len(benches))
	for bi, b := range benches {
		r := OracleResult{
			Bench:       b.Name,
			ILANSec:     stats.Mean(cells[bi].ilan.Times()),
			BaselineSec: stats.Mean(cells[bi].basel.Times()),
		}
		for pi, pt := range pts {
			p := OraclePoint{Threads: pt.Threads, StealFull: pt.StealFull,
				MeanSec: stats.Mean(cells[bi].fixed[pi].Times())}
			r.Points = append(r.Points, p)
			if r.Best.MeanSec == 0 || p.MeanSec < r.Best.MeanSec {
				r.Best = p
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// ReportOracle prints the oracle study.
func ReportOracle(w io.Writer, results []OracleResult) {
	fmt.Fprintln(w, "Oracle study: best fixed (threads, steal_policy) vs ILAN's online search")
	fmt.Fprintln(w, "(efficiency = oracle time / ILAN time; the oracle pays no exploration cost)")
	fmt.Fprintf(w, "%-8s %16s %12s %12s %12s %12s\n",
		"bench", "oracle config", "oracle(s)", "ilan(s)", "baseline(s)", "efficiency")
	for _, r := range results {
		policy := "strict"
		if r.Best.StealFull {
			policy = "full"
		}
		fmt.Fprintf(w, "%-8s %9d/%-6s %12.4f %12.4f %12.4f %11.1f%%\n",
			r.Bench, r.Best.Threads, policy, r.Best.MeanSec, r.ILANSec,
			r.BaselineSec, 100*r.Efficiency())
	}
}
