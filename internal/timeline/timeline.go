// Package timeline renders an execution trace as an ASCII occupancy
// chart: one row per NUMA node, time bucketed into columns, each cell
// shaded by the fraction of the node's cores that were busy — making
// placement and molding (idle node rows) visible at a glance.
package timeline

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/taskrt"
)

// width is the number of time buckets.
const width = 100

// densityGlyph maps occupancy in [0,1] to a shade.
func densityGlyph(f float64) byte {
	switch {
	case f <= 0.01:
		return ' '
	case f < 0.25:
		return '.'
	case f < 0.5:
		return ':'
	case f < 0.75:
		return 'o'
	default:
		return '#'
	}
}

// Render writes the per-node occupancy timeline of a trace over its full
// span, one row per NUMA node.
func Render(w io.Writer, tr *taskrt.Trace, nodes int) error {
	if tr == nil || len(tr.Tasks) == 0 {
		return fmt.Errorf("timeline: empty trace")
	}
	if nodes <= 0 {
		return fmt.Errorf("timeline: nodes must be positive")
	}
	from, to := tr.Tasks[0].StartSec, tr.Tasks[0].EndSec
	for _, ev := range tr.Tasks {
		from = min(from, ev.StartSec)
		to = max(to, ev.EndSec)
	}
	if to <= from {
		return fmt.Errorf("timeline: degenerate time window")
	}
	bucket := (to - from) / width

	busy := make([][]float64, nodes)
	coresPerNode := map[int]map[int]bool{}
	for i := range busy {
		busy[i] = make([]float64, width)
		coresPerNode[i] = map[int]bool{}
	}
	for _, ev := range tr.Tasks {
		if ev.Node < 0 || ev.Node >= nodes {
			continue
		}
		coresPerNode[ev.Node][ev.Core] = true
		for b := range width {
			bs := from + float64(b)*bucket
			if ov := min(ev.EndSec, bs+bucket) - max(ev.StartSec, bs); ov > 0 {
				busy[ev.Node][b] += ov
			}
		}
	}
	fmt.Fprintf(w, "per-node occupancy (%.2f us/col); shade = busy core fraction\n", bucket*1e6)
	for n := range busy {
		cores := len(coresPerNode[n])
		if cores == 0 {
			cores = 1
		}
		line := make([]byte, width)
		for b := range busy[n] {
			line[b] = densityGlyph(busy[n][b] / (bucket * float64(cores)))
		}
		fmt.Fprintf(w, "node %2d |%s|\n", n, line)
	}
	return nil
}
