package harness

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// SweepParam names a machine-model parameter a sweep varies.
type SweepParam string

// Sweepable parameters.
const (
	SweepAlpha        SweepParam = "alpha"
	SweepBeta         SweepParam = "beta"
	SweepControllerBW SweepParam = "controllerbw"
	SweepCoreBW       SweepParam = "corebw"
	SweepLinkBW       SweepParam = "linkbw"
)

// SweepPoint is the outcome at one parameter value.
type SweepPoint struct {
	Value float64
	// Speedup is mean(baseline)/mean(ILAN) at this value.
	Speedup float64
	// Threads is ILAN's mean weighted thread count.
	Threads float64
	// BaselineSec / ILANSec are the mean elapsed times.
	BaselineSec float64
	ILANSec     float64
	// Obs is the ILAN cell's merged observability snapshot at this value
	// (nil unless the sweep ran with Config.Metrics/TraceDecisions).
	Obs *obs.Snapshot
}

// ParseSweepParam validates a parameter name, returning the typed
// parameter or an error listing the valid names. CLIs use it to reject a
// bad -param before any work runs (and to exit with the flag-error code
// rather than the runtime-error code).
func ParseSweepParam(s string) (SweepParam, error) {
	switch p := SweepParam(s); p {
	case SweepAlpha, SweepBeta, SweepControllerBW, SweepCoreBW, SweepLinkBW:
		return p, nil
	default:
		return "", fmt.Errorf("harness: unknown sweep parameter %q (valid: alpha, beta, controllerbw, corebw, linkbw)", s)
	}
}

// applyParam returns cfg with one machine-model parameter overridden.
func applyParam(cfg Config, param SweepParam, v float64) (Config, error) {
	c := cfg
	vv := v
	switch param {
	case SweepAlpha:
		c.Alpha = &vv
	case SweepBeta:
		c.Beta = &vv
	case SweepControllerBW:
		c.ControllerBW = vv
	case SweepCoreBW:
		c.CoreStreamBW = vv
	case SweepLinkBW:
		c.LinkBW = vv
	default:
		return cfg, fmt.Errorf("harness: unknown sweep parameter %q", param)
	}
	return c, nil
}

// Sweep runs a benchmark under the baseline and ILAN across values of one
// machine-model parameter — the sensitivity curves behind the calibration
// choices in DESIGN.md §5. The (value, scheduler, rep) units fan out
// across one cfg.Jobs-bounded pool; points are assembled in value order,
// so the curve is identical to a sequential run. progress, if non-nil, is
// called as the last unit of each value completes — completion order, the
// order a user watching the sweep actually experiences, not enqueue order
// (which announced every point before any work had run). Calls may come
// from pool workers but are serialized, so the callback needs no locking.
func Sweep(bench workloads.Benchmark, param SweepParam, values []float64,
	cfg Config, progress func(v float64)) ([]SweepPoint, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("harness: sweep with no values")
	}
	kinds := [2]Kind{KindBaseline, KindILAN}
	var cp campaign
	cells := make([][2]*Cell, len(values))
	for vi, v := range values {
		c, err := applyParam(cfg, param, v)
		if err != nil {
			return nil, err
		}
		for ki, k := range kinds {
			cells[vi][ki] = cp.soloCell(fmt.Sprintf("%s/%s %s=%g", bench.Name, k, param, v),
				soloUnit(bench, k, c))
		}
	}
	var done func(*unit)
	if progress != nil {
		// remaining counts each value's outstanding units so the callback
		// fires exactly once per value, when its last unit lands.
		remaining := make([]int64, len(values))
		for vi := range remaining {
			remaining[vi] = int64(len(kinds) * cfg.Reps)
		}
		var mu sync.Mutex
		done = func(u *unit) {
			vi := u.cell / len(kinds)
			if atomic.AddInt64(&remaining[vi], -1) == 0 {
				mu.Lock()
				progress(values[vi])
				mu.Unlock()
			}
		}
	}
	if err := cp.run(cfg, fmt.Sprintf("sweep %s %s", bench.Name, param), done); err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(values))
	for vi, v := range values {
		base, il := cells[vi][0], cells[vi][1]
		bm, im := stats.Mean(base.Times()), stats.Mean(il.Times())
		out = append(out, SweepPoint{
			Value:       v,
			Speedup:     stats.Speedup(bm, im),
			Threads:     il.MeanThreads(),
			BaselineSec: bm,
			ILANSec:     im,
			Obs:         il.MergedObs(),
		})
	}
	return out, nil
}

// ReportSweep prints a sweep as a table. When the points carry
// observability snapshots, ILAN's per-point steal split rides along as two
// extra columns.
func ReportSweep(w io.Writer, bench string, param SweepParam, points []SweepPoint) {
	withObs := len(points) > 0 && points[0].Obs != nil
	fmt.Fprintf(w, "sensitivity of %s to %s (ILAN vs baseline)\n", bench, param)
	fmt.Fprintf(w, "%14s %10s %10s %14s %14s",
		string(param), "speedup", "threads", "baseline(s)", "ilan(s)")
	if withObs {
		fmt.Fprintf(w, " %12s %12s", "steals-local", "steals-remote")
	}
	fmt.Fprintln(w)
	for _, p := range points {
		fmt.Fprintf(w, "%14.5g %9.3fx %10.1f %14.4f %14.4f",
			p.Value, p.Speedup, p.Threads, p.BaselineSec, p.ILANSec)
		if withObs && p.Obs != nil {
			fmt.Fprintf(w, " %12.0f %12.0f",
				p.Obs.Counters["taskrt_steals_local_total"],
				p.Obs.Counters["taskrt_steals_remote_total"])
		}
		fmt.Fprintln(w)
	}
}
