package obs

import (
	"fmt"
	"math"
)

// TaskAttr decomposes the virtual wall time of a set of task executions.
// Every task's `end − start` is split exactly (see DESIGN.md §14) into
//
//	elapsed = ideal compute + core-speed degradation
//	        + ideal memory + locality penalty + interference stall
//	        + residual
//
// where "ideal compute" is the task's jittered compute demand at unit core
// speed, "core-speed degradation" is the (signed) extra time from the
// core's drawn speed, "ideal memory" is the memory time the task would take
// alone with all of its traffic local to its home node, "locality" is the
// (signed) extra solo time caused by where its pages actually live, and
// "interference" is the remaining stall caused by sharing resources with
// other tasks and external disturbances. Residual is the floating-point
// closure term and stays within ulps of zero.
type TaskAttr struct {
	Tasks           uint64  `json:"tasks"`
	ElapsedSec      float64 `json:"elapsedSec"`
	IdealComputeSec float64 `json:"idealComputeSec"`
	CoreSpeedSec    float64 `json:"coreSpeedSec"`
	IdealMemorySec  float64 `json:"idealMemorySec"`
	LocalitySec     float64 `json:"localitySec"`
	InterferenceSec float64 `json:"interferenceSec"`
	ResidualSec     float64 `json:"residualSec"`
}

// TermSum returns the sum of the decomposition terms. Conservation holds
// when TermSum ≈ ElapsedSec.
func (t TaskAttr) TermSum() float64 {
	return t.IdealComputeSec + t.CoreSpeedSec + t.IdealMemorySec +
		t.LocalitySec + t.InterferenceSec + t.ResidualSec
}

// Add folds o into t, field by field: the one place task terms are
// summed, for a run's totals and for merged reports alike.
func (t *TaskAttr) Add(o TaskAttr) {
	t.Tasks += o.Tasks
	t.ElapsedSec += o.ElapsedSec
	t.IdealComputeSec += o.IdealComputeSec
	t.CoreSpeedSec += o.CoreSpeedSec
	t.IdealMemorySec += o.IdealMemorySec
	t.LocalitySec += o.LocalitySec
	t.InterferenceSec += o.InterferenceSec
	t.ResidualSec += o.ResidualSec
}

// LoopAttr decomposes a loop's makespan over its active threads into
// core-seconds:
//
//	CoreSec = Σ makespan·threads
//	        = SelectSec + TaskSec + StealSec + ImbalanceSec + BarrierSec
//	        + ResidualSec
//
// SelectSec and BarrierSec are the thread-count-scaled select-overhead and
// barrier walls; TaskSec is time inside task execution; StealSec is wall
// time spent in dispatch/steal transitions; ImbalanceSec is idle time
// between a thread running out of work and the last task finishing.
// QueueWaitSec is informational (task release → dispatch, summed over
// tasks) and sits outside the conservation identity because it overlaps
// with time other threads spend executing.
type LoopAttr struct {
	Executions   int     `json:"executions"`
	MakespanSec  float64 `json:"makespanSec"`
	CoreSec      float64 `json:"coreSec"`
	SelectSec    float64 `json:"selectSec"`
	TaskSec      float64 `json:"taskSec"`
	StealSec     float64 `json:"stealSec"`
	ImbalanceSec float64 `json:"imbalanceSec"`
	BarrierSec   float64 `json:"barrierSec"`
	QueueWaitSec float64 `json:"queueWaitSec"`
	ResidualSec  float64 `json:"residualSec"`
}

// TermSum returns the sum of the core-second decomposition terms.
// Conservation holds when TermSum ≈ CoreSec.
func (l LoopAttr) TermSum() float64 {
	return l.SelectSec + l.TaskSec + l.StealSec + l.ImbalanceSec +
		l.BarrierSec + l.ResidualSec
}

// Add folds o into l, field by field: the one place loop terms are summed.
func (l *LoopAttr) Add(o LoopAttr) {
	l.Executions += o.Executions
	l.MakespanSec += o.MakespanSec
	l.CoreSec += o.CoreSec
	l.SelectSec += o.SelectSec
	l.TaskSec += o.TaskSec
	l.StealSec += o.StealSec
	l.ImbalanceSec += o.ImbalanceSec
	l.BarrierSec += o.BarrierSec
	l.QueueWaitSec += o.QueueWaitSec
	l.ResidualSec += o.ResidualSec
}

// AttrSnapshot is the attribution report of one run (or several merged
// runs). Like Snapshot, its JSON form is byte-deterministic for identical
// contents, and MergeAttr folds per-rep snapshots in input order so the
// jobs=1 vs jobs=N byte-identity gate holds for attribution output too.
type AttrSnapshot struct {
	Runs int      `json:"runs"`
	Task TaskAttr `json:"task"`
	// Loops maps loop name → per-loop makespan decomposition, summed over
	// the loop's executions.
	Loops map[string]LoopAttr `json:"loops,omitempty"`
	// Interference maps resource name ("node0", "link0-1", "port") →
	// interference-stall seconds attributed to tasks whose solo memory
	// bottleneck was that resource.
	Interference map[string]float64 `json:"interference,omitempty"`
}

// MergeAttr combines per-run attribution snapshots, in order, into one
// aggregate: every term is summed. Nil snapshots are skipped; the result is
// nil when every input is nil. Map keys are folded in sorted order so float
// accumulation never depends on map iteration.
func MergeAttr(snaps []*AttrSnapshot) *AttrSnapshot {
	var out *AttrSnapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if out == nil {
			out = &AttrSnapshot{}
		}
		out.Runs += s.Runs
		out.Task.Add(s.Task)
		for _, name := range sortedKeys(s.Loops) {
			if out.Loops == nil {
				out.Loops = make(map[string]LoopAttr)
			}
			l := out.Loops[name]
			l.Add(s.Loops[name])
			out.Loops[name] = l
		}
		for _, name := range sortedKeys(s.Interference) {
			if out.Interference == nil {
				out.Interference = make(map[string]float64)
			}
			out.Interference[name] += s.Interference[name]
		}
	}
	return out
}

// AttrTolerance returns the conservation tolerance for a decomposition at
// the given scale: ulp-proportional with an absolute floor, generous
// against float accumulation across millions of tasks yet far below any
// real dropped term.
func AttrTolerance(scale float64) float64 {
	return 1e-9*math.Abs(scale) + 1e-12
}

// CheckConservation verifies both conservation laws on the snapshot: the
// per-task terms sum to the measured elapsed seconds, and every loop's
// terms sum to its measured core-seconds. It returns nil when both hold
// within AttrTolerance.
func (s *AttrSnapshot) CheckConservation() error {
	if s == nil {
		return nil
	}
	if d := s.Task.TermSum() - s.Task.ElapsedSec; math.Abs(d) > AttrTolerance(s.Task.ElapsedSec) {
		return fmt.Errorf("obs: task attribution terms sum to %.12g, elapsed %.12g (gap %.3g)",
			s.Task.TermSum(), s.Task.ElapsedSec, d)
	}
	for _, name := range sortedKeys(s.Loops) {
		l := s.Loops[name]
		if d := l.TermSum() - l.CoreSec; math.Abs(d) > AttrTolerance(l.CoreSec) {
			return fmt.Errorf("obs: loop %q attribution terms sum to %.12g core-seconds, measured %.12g (gap %.3g)",
				name, l.TermSum(), l.CoreSec, d)
		}
	}
	return nil
}

// Metrics returns the report's Prometheus series as a Snapshot, for
// Snapshot.WritePrometheus: every term as an `ilan_attr_*_seconds_total`
// gauge, because two of them (core-speed, locality) are signed, and the
// task count as the ilan_attr_tasks_total counter. Nil on a nil report.
func (s *AttrSnapshot) Metrics() *Snapshot {
	if s == nil {
		return nil
	}
	t := s.Task
	g := map[string]float64{
		"ilan_attr_task_elapsed_seconds_total":       t.ElapsedSec,
		"ilan_attr_task_ideal_compute_seconds_total": t.IdealComputeSec,
		"ilan_attr_task_core_speed_seconds_total":    t.CoreSpeedSec,
		"ilan_attr_task_ideal_memory_seconds_total":  t.IdealMemorySec,
		"ilan_attr_task_locality_seconds_total":      t.LocalitySec,
		"ilan_attr_task_interference_seconds_total":  t.InterferenceSec,
		"ilan_attr_task_residual_seconds_total":      t.ResidualSec,
	}
	for name, v := range s.Interference {
		g["ilan_attr_interference_seconds_total"+Label("resource", name)] = v
	}
	for name, l := range s.Loops {
		lbl := Label("loop", name)
		g["ilan_attr_loop_core_seconds_total"+lbl] = l.CoreSec
		g["ilan_attr_loop_select_seconds_total"+lbl] = l.SelectSec
		g["ilan_attr_loop_task_seconds_total"+lbl] = l.TaskSec
		g["ilan_attr_loop_steal_seconds_total"+lbl] = l.StealSec
		g["ilan_attr_loop_imbalance_seconds_total"+lbl] = l.ImbalanceSec
		g["ilan_attr_loop_barrier_seconds_total"+lbl] = l.BarrierSec
		g["ilan_attr_loop_queue_wait_seconds_total"+lbl] = l.QueueWaitSec
	}
	return &Snapshot{Runs: s.Runs, Gauges: g,
		Counters: map[string]float64{"ilan_attr_tasks_total": float64(t.Tasks)}}
}
