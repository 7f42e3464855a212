package taskrt

import "github.com/ilan-sched/ilan/internal/obs"

// loopElapsedBuckets spans loop wall times from 100 microseconds to ~0.4
// seconds, the range the paper-scale benchmarks cover.
var loopElapsedBuckets = obs.ExpBuckets(1e-4, 2, 12)

// SetObs attaches an observability collector to the runtime. A nil run
// (the default) disables observation: the per-loop hook reduces to one nil
// check and the hot task path is untouched either way — everything
// high-frequency is pulled from the runtime's existing aggregates by
// FinalizeObs instead of being pushed per event.
func (rt *Runtime) SetObs(run *obs.Run) {
	rt.obsRun = run
	if run != nil {
		rt.mach.EnableObs()
	}
}

// Obs returns the attached collector (nil when observability is off).
// Schedulers use it from Observe to record decision traces.
func (rt *Runtime) Obs() *obs.Run { return rt.obsRun }

// observeLoop pushes the per-loop-completion samples: the elapsed-time
// histogram and the virtual-time profile attributing the loop's execution
// to compute, memory, and runtime overhead. Called from completeLoop under
// an obsRun nil check.
func (rt *Runtime) observeLoop(le *loopExec) {
	rt.obsRun.Observe("taskrt_loop_elapsed_sec", loopElapsedBuckets, le.st.Elapsed.Seconds())
	p := rt.obsRun.Profile()
	p.Add(le.spec.Name, "compute", le.st.ComputeSeconds)
	p.Add(le.spec.Name, "memory", le.st.MemorySeconds)
	p.Add(le.spec.Name, "overhead", le.st.OverheadSec)
}

// FinalizeObs samples the run-level aggregates — engine event counts,
// steal statistics, loop totals, and the machine's counters — into the
// collector. Call once, after the run has drained. No-op when
// observability is off.
func (rt *Runtime) FinalizeObs() {
	run := rt.obsRun
	if run == nil {
		return
	}
	run.Add("engine_events_fired_total", float64(rt.eng.Processed()))
	run.Add("engine_events_cancelled_total", float64(rt.eng.Cancelled()))
	run.Add("taskrt_steals_local_total", float64(rt.stealsLocal))
	run.Add("taskrt_steals_remote_total", float64(rt.stealsRemote))
	run.Add("taskrt_steal_attempts_total", float64(rt.stealAttempts))
	run.Add("taskrt_loop_executions_total", float64(rt.loopExecutions))
	run.Add("taskrt_overhead_seconds_total", rt.overheadSec)
	run.Add("taskrt_loop_seconds_total", rt.elapsedLoopSec)
	rt.mach.FillObs(run)
}
