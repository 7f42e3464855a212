package taskrt

import (
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
)

// Loop-level attribution (DESIGN.md §14): a loop's makespan, scaled to
// core-seconds over its active threads, partitions exactly along the
// runtime's own lifecycle events:
//
//	makespan·A = select·A + Σ task exec + Σ dispatch cost
//	           + imbalance + barrier·A
//
// because each active thread's [release, finish] interval is an exact
// alternation of busy spans (one dispatch cost followed by one task
// execution) and idle spans: task acquisition happens at the same virtual
// instant a thread wakes or completes, threads never re-wake after parking
// (work available to a thread is monotonically consumed), and when the last
// task completes no thread is mid-dispatch or mid-exec. The idle spans are
// the barrier imbalance. The terms are measured independently — event
// timestamps for select/barrier walls, per-task durations, park stamps for
// imbalance — so the residual closure is a genuine conservation check, not
// an identity.

// EnableAttr switches on virtual-time attribution for the run: per-task
// decomposition on the machine plus the per-loop makespan decomposition
// here. Output-neutral (no RNG draws, no events scheduled) and idempotent;
// call before the first loop.
func (rt *Runtime) EnableAttr() {
	if rt.attrOn {
		return
	}
	rt.attrOn = true
	rt.attrIdleSince = make([]sim.Time, rt.topo.NumCores())
	rt.attrLoops = make(map[string]obs.LoopAttr)
	rt.mach.EnableAttr()
}

// AttrEnabled reports whether attribution is on.
func (rt *Runtime) AttrEnabled() bool { return rt.attrOn }

// LastLoopAttr returns the decomposition of the most recently completed
// loop execution (valid inside a LoopDone probe and after it). The second
// result is false before the first completion or with attribution off.
func (rt *Runtime) LastLoopAttr() (obs.LoopAttr, bool) {
	return rt.lastLoopAttr, rt.attrOn && rt.lastLoopAttr.Executions > 0
}

// attrRelease stamps the release instant: select overhead ends, every
// active thread starts idle-waiting for its first dispatch.
func (rt *Runtime) attrRelease(le *loopExec) {
	now := rt.eng.Now()
	le.releaseAt = now
	for _, c := range le.plan.Active {
		rt.attrIdleSince[c] = now
	}
}

// attrFinish stamps the finish instant and sweeps the idle tails: every
// active thread is idle here (the completer was just stamped), so the gap
// since its park is barrier imbalance.
func (rt *Runtime) attrFinish(le *loopExec) {
	now := rt.eng.Now()
	le.finishAt = now
	for _, c := range le.plan.Active {
		le.aImb += float64(now - rt.attrIdleSince[c])
	}
}

// attrCompleteLoop assembles the loop's decomposition at barrier end and
// folds it into the run totals. Runs before the LoopDone probe so checkers
// can read LastLoopAttr.
func (rt *Runtime) attrCompleteLoop(le *loopExec) {
	a := float64(len(le.plan.Active))
	var taskSec float64
	for _, s := range le.st.NodeTaskSeconds {
		taskSec += s
	}
	la := obs.LoopAttr{
		Executions:   1,
		MakespanSec:  float64(le.st.Elapsed),
		CoreSec:      float64(le.st.Elapsed) * a,
		SelectSec:    float64(le.releaseAt-le.start) * a,
		TaskSec:      taskSec,
		StealSec:     le.aSteal,
		ImbalanceSec: le.aImb,
		BarrierSec:   float64(rt.eng.Now()-le.finishAt) * a,
		QueueWaitSec: le.aQueue,
	}
	la.ResidualSec = la.CoreSec - (la.SelectSec + la.TaskSec + la.StealSec +
		la.ImbalanceSec + la.BarrierSec)
	rt.lastLoopAttr = la

	k := attrKey(le.spec)
	t := rt.attrLoops[k]
	t.Add(la)
	rt.attrLoops[k] = t
}

// attrKey names a loop's attribution bucket. Multiprogrammed runs prefix
// the program so same-named loops from co-running programs don't merge;
// solo loops keep their bare name, preserving existing report keys.
func attrKey(spec *LoopSpec) string {
	if spec.Program == "" {
		return spec.Name
	}
	return spec.Program + "/" + spec.Name
}

// AttrSnapshot exports the run's attribution report: the machine's
// per-task totals and interference split plus the per-loop decompositions.
// Nil when attribution is off.
func (rt *Runtime) AttrSnapshot() *obs.AttrSnapshot {
	if !rt.attrOn {
		return nil
	}
	s := &obs.AttrSnapshot{Runs: 1}
	rt.mach.FillAttr(s)
	if len(rt.attrLoops) > 0 {
		s.Loops = make(map[string]obs.LoopAttr, len(rt.attrLoops))
		for name, la := range rt.attrLoops {
			s.Loops[name] = la
		}
	}
	return s
}
