package taskrt

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/sim"
)

// TaskEvent records one task execution for offline analysis (timelines,
// placement heatmaps, steal-flow graphs).
type TaskEvent struct {
	LoopID   int    `json:"loop"`
	LoopName string `json:"loopName"`
	// Program tags the owning program in a multiprogrammed run; empty for
	// a solo program, which keeps single-program traces byte-identical.
	Program  string  `json:"program,omitempty"`
	Exec     int     `json:"exec"` // which execution of the loop (1-based)
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Core     int     `json:"core"`
	Node     int     `json:"node"`
	StartSec float64 `json:"start"`
	EndSec   float64 `json:"end"`
	Stolen   bool    `json:"stolen"`
	Remote   bool    `json:"remote"` // stolen across NUMA nodes
	Strict   bool    `json:"strict"` // NUMA-strict (yellow) task
	// FromCore is the victim core a stolen task was taken from, -1 when
	// the task ran on its submission core. Trace exporters use it to draw
	// steal flows.
	FromCore int `json:"from"`
	// Attribution breakdown of EndSec−StartSec (DESIGN.md §14). Tracing
	// always enables machine-side attribution, so these are populated
	// whether or not the campaign exports an attribution report — which
	// keeps traces byte-identical with -attr on or off.
	IdealSec        float64 `json:"idealSec,omitempty"`
	CoreSpeedSec    float64 `json:"coreSpeedSec,omitempty"`
	IdealMemSec     float64 `json:"idealMemSec,omitempty"`
	LocalitySec     float64 `json:"localitySec,omitempty"`
	InterferenceSec float64 `json:"interferenceSec,omitempty"`
}

// LoopMark records one taskloop execution's boundaries.
type LoopMark struct {
	LoopID    int     `json:"loop"`
	LoopName  string  `json:"loopName"`
	Program   string  `json:"program,omitempty"`
	Exec      int     `json:"exec"`
	SubmitSec float64 `json:"submit"`
	DoneSec   float64 `json:"done"`
	Threads   int     `json:"threads"`
}

// ResSample is one point of the per-node resource time series: cumulative
// memory-controller bytes and instantaneous queue-pressure load, sampled
// at task-completion times while tracing is on.
type ResSample struct {
	TimeSec float64 `json:"t"`
	Node    int     `json:"node"`
	MCBytes float64 `json:"mcBytes"`
	Queue   float64 `json:"queue"`
}

// Trace accumulates events when tracing is enabled on a Runtime.
type Trace struct {
	Tasks []TaskEvent `json:"tasks"`
	Loops []LoopMark  `json:"loops"`
	// Resources carries per-node counter samples for trace exporters
	// (bandwidth and queue-depth counter tracks). Populated only while
	// tracing is enabled, so the hot path pays nothing when it is off.
	Resources []ResSample `json:"resources,omitempty"`

	execCount map[int]int
}

// EnableTracing turns on task-event recording. Call before running a
// program; the trace grows by one record per task execution. Tracing
// enables the machine's attribution accounting so every task event carries
// its time breakdown; that accounting is output-neutral, so enabling it
// here changes no other observable.
func (rt *Runtime) EnableTracing() *Trace {
	if rt.trace == nil {
		rt.trace = &Trace{execCount: make(map[int]int)}
		rt.mach.EnableAttr()
	}
	return rt.trace
}

// Trace returns the active trace, or nil when tracing is off.
func (rt *Runtime) Trace() *Trace { return rt.trace }

func (tr *Trace) beginLoop(spec *LoopSpec) int {
	tr.execCount[spec.ID]++
	return tr.execCount[spec.ID]
}

// WriteJSONL emits the trace as JSON lines: one "loop" or "task" object per
// line, timeline-ordered by start time within each kind.
func (tr *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, l := range tr.Loops {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			LoopMark
		}{"loop", l}); err != nil {
			return err
		}
	}
	for _, t := range tr.Tasks {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			TaskEvent
		}{"task", t}); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns a compact human-readable digest of the trace.
func (tr *Trace) Summary(numNodes int) string {
	perNode := make([]int, numNodes)
	stolen, remote := 0, 0
	var busy float64
	for _, t := range tr.Tasks {
		perNode[t.Node]++
		if t.Stolen {
			stolen++
		}
		if t.Remote {
			remote++
		}
		busy += t.EndSec - t.StartSec
	}
	s := fmt.Sprintf("%d task events over %d loop executions; %d stolen (%d across nodes)\n",
		len(tr.Tasks), len(tr.Loops), stolen, remote)
	s += "tasks per node:"
	for n, c := range perNode {
		s += fmt.Sprintf(" n%d=%d", n, c)
	}
	if len(tr.Tasks) > 0 {
		s += fmt.Sprintf("\nmean task duration %.3f ms", 1e3*busy/float64(len(tr.Tasks)))
	}
	return s
}

// record appends a task event (called from the runtime's completion path).
func (tr *Trace) record(ev TaskEvent) { tr.Tasks = append(tr.Tasks, ev) }

func (tr *Trace) endLoop(spec *LoopSpec, exec int, submit, done sim.Time, threads int) {
	tr.Loops = append(tr.Loops, LoopMark{
		LoopID: spec.ID, LoopName: spec.Name, Program: spec.Program, Exec: exec,
		SubmitSec: float64(submit), DoneSec: float64(done), Threads: threads,
	})
}
