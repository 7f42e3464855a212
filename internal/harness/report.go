package harness

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/stats"
)

// The matrix reports below print one table row per benchmark. They run
// behind their experiment's Report, which first checks that the matrix
// holds a cell for every benchmark and kind of the row.

// reportFig2 prints the normalized speedup of ILAN vs the baseline with
// per-scheduler variability, the paper's Figure 2.
func reportFig2(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 2: normalized speedup of ILAN vs default work-stealing baseline")
	fmt.Fprintln(w, "(higher is better; paper: avg +13.2%, max +45.8% on SP, Matmul slightly < 1)")
	fmt.Fprintf(w, "%-8s %10s %14s %14s %12s %12s %6s\n",
		"bench", "speedup", "baseline(s)", "ilan(s)", "base CV", "ilan CV", "sig")
	var speedups []float64
	for _, b := range m.Benches {
		base, il := m.Cell(b, KindBaseline), m.Cell(b, KindILAN)
		sp := m.Speedup(b, KindILAN)
		speedups = append(speedups, sp)
		sig := " "
		if stats.SignificantlyDifferent(base.Times(), il.Times()) {
			sig = "*"
		}
		fmt.Fprintf(w, "%-8s %9.3fx %14.4f %14.4f %11.2f%% %11.2f%% %6s\n",
			b, sp, stats.Mean(base.Times()), stats.Mean(il.Times()),
			100*stats.CoefVar(base.Times()), 100*stats.CoefVar(il.Times()), sig)
	}
	fmt.Fprintf(w, "%-8s %9.3fx   (geometric mean %.3fx)\n",
		"average", stats.Mean(speedups), stats.GeoMean(speedups))
}

// reportFig3 prints the execution-time-weighted average thread count ILAN
// selected per benchmark, the paper's Figure 3.
func reportFig3(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 3: weighted average threads (cores) selected by ILAN")
	fmt.Fprintln(w, "(paper: CG ~25 of 64; FT, BT, Matmul stay at 64)")
	fmt.Fprintf(w, "%-8s %16s\n", "bench", "avg threads")
	for _, b := range m.Benches {
		fmt.Fprintf(w, "%-8s %16.1f\n", b, m.Cell(b, KindILAN).MeanThreads())
	}
}

// reportFig4 prints the speedup of ILAN without moldability vs the
// baseline, the paper's Figure 4.
func reportFig4(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 4: normalized speedup of ILAN without moldability vs baseline")
	fmt.Fprintln(w, "(paper: avg +7.9%; CG drops to 0.914, SP loses most of its gain)")
	fmt.Fprintf(w, "%-8s %10s\n", "bench", "speedup")
	var speedups []float64
	for _, b := range m.Benches {
		sp := m.Speedup(b, KindILANNoMold)
		speedups = append(speedups, sp)
		fmt.Fprintf(w, "%-8s %9.3fx\n", b, sp)
	}
	fmt.Fprintf(w, "%-8s %9.3fx\n", "average", stats.Mean(speedups))
}

// reportTable1 prints the standard deviation of execution time under the
// baseline and ILAN, the paper's Table 1.
func reportTable1(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Table 1: standard deviation of execution time (30 runs)")
	fmt.Fprintln(w, "(paper: ILAN lower in FT, LU, SP; higher in BT, CG, Matmul, LULESH)")
	fmt.Fprintf(w, "%-8s %12s %12s %18s\n", "bench", "baseline", "ilan", "ilan (no outliers)")
	for _, b := range m.Benches {
		base, il := m.Cell(b, KindBaseline), m.Cell(b, KindILAN)
		fmt.Fprintf(w, "%-8s %12.4f %12.4f %18.4f\n",
			b, stats.StdDev(base.Times()), stats.StdDev(il.Times()),
			stats.StdDev(stats.DropOutliers(il.Times(), 2.5)))
	}
}

// reportFig5 prints the accumulated scheduling overhead of ILAN normalized
// to the baseline, the paper's Figure 5 (lower is better).
func reportFig5(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 5: accumulated scheduling overhead, normalized to baseline")
	fmt.Fprintln(w, "(lower is better; paper: ILAN lower in 4 of 7, highest on Matmul)")
	fmt.Fprintf(w, "%-8s %12s %16s %16s\n", "bench", "ratio", "baseline(ms)", "ilan(ms)")
	for _, b := range m.Benches {
		base, il := m.Cell(b, KindBaseline), m.Cell(b, KindILAN)
		fmt.Fprintf(w, "%-8s %12.3f %16.3f %16.3f\n",
			b, m.OverheadRatio(b, KindILAN),
			1e3*stats.Mean(base.Overheads()), 1e3*stats.Mean(il.Overheads()))
	}
}

// reportFig6 prints ILAN and static work-sharing speedups vs the baseline,
// the paper's Figure 6.
func reportFig6(w io.Writer, m *Matrix) {
	fmt.Fprintln(w, "Figure 6: ILAN and OpenMP work-sharing speedup vs tasking baseline")
	fmt.Fprintln(w, "(paper: work-sharing wins FT; tasking wins CG decisively)")
	fmt.Fprintf(w, "%-8s %12s %14s %12s %12s\n",
		"bench", "ilan", "worksharing", "ilan CV", "ws CV")
	for _, b := range m.Benches {
		il, ws := m.Cell(b, KindILAN), m.Cell(b, KindWorkSharing)
		fmt.Fprintf(w, "%-8s %11.3fx %13.3fx %11.2f%% %11.2f%%\n",
			b, m.Speedup(b, KindILAN), m.Speedup(b, KindWorkSharing),
			100*stats.CoefVar(il.Times()), 100*stats.CoefVar(ws.Times()))
	}
}

// speedupColumns returns the report of an extension experiment: per
// benchmark, one speedup-vs-baseline column for each kind in cols.
func speedupColumns(title, note string, cols []Kind) func(io.Writer, *Matrix) {
	width := func(k Kind) int { return max(12, len(k.String())+3) }
	return func(w io.Writer, m *Matrix) {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, note)
		fmt.Fprintf(w, "%-8s", "bench")
		for _, k := range cols {
			fmt.Fprintf(w, " %*s", width(k), k)
		}
		fmt.Fprintln(w)
		for _, b := range m.Benches {
			fmt.Fprintf(w, "%-8s", b)
			for _, k := range cols {
				fmt.Fprintf(w, " %*.3fx", width(k)-1, m.Speedup(b, k))
			}
			fmt.Fprintln(w)
		}
	}
}
