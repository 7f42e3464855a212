package taskrt

import (
	"fmt"
	"strings"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Costs are the virtual-time prices of runtime operations. They follow the
// order of magnitude of the LLVM runtime's task-management paths on the
// paper's platform (fractions of a microsecond per operation). Victim scans
// and barriers scale with the number of threads involved, which is what
// makes narrow ILAN configurations cheaper to synchronize — the effect the
// paper's Figure 5 measures.
type Costs struct {
	TaskCreate sim.Duration // per task, charged to the master at submission
	Dispatch   sim.Duration // per task acquisition (pop or steal)
	VictimScan sim.Duration // per victim deque inspected while stealing
	Barrier    sim.Duration // per active thread joining the loop barrier
}

// DefaultCosts returns the calibration used by the experiments.
func DefaultCosts() Costs {
	return Costs{
		TaskCreate: 250e-9,
		Dispatch:   120e-9,
		VictimScan: 10e-9,
		Barrier:    100e-9,
	}
}

// Runtime executes taskloops on a simulated machine under a Scheduler.
// One Runtime corresponds to one application run: its scheduler state
// (e.g. ILAN's PTT) starts cold and persists across all loops of the run.
//
// The runtime is multiprogrammed: several loop executions — one per
// co-running program — can be in flight at once, space-sharing the
// machine. Their plans are core-disjoint (Plan.Validate enforces it
// against the live occupancy), each active thread is bound to exactly one
// execution, and all per-loop state lives on the execution, so concurrent
// loops never share mutable scheduling state. A solo program is the
// degenerate case with one entry in the table at a time.
type Runtime struct {
	mach  *machine.Machine
	topo  *topology.Machine
	eng   *sim.Engine
	costs Costs
	sched Scheduler
	rng   *sim.RNG

	threads []thread
	// execs is the table of in-flight loop executions in submission
	// order, keyed by their execution IDs (loopExec.id). Concurrent
	// entries hold disjoint core sets.
	execs      []*loopExec
	nextExecID int
	// execFree and planFree pool completed execution records and the
	// NewPlan-issued plans they ran. Both return here only after the
	// loop's done callback and the scheduler's Observe have returned
	// (completeLoop), so a steady-state loop allocates nothing.
	execFree []*loopExec
	planFree []*Plan
	// victimScratch is the buffer steal scans shuffle victim cores in; a
	// scan finishes before the next one starts, so one serves every thread.
	victimScratch []int32
	// occ is the reusable occupancy view assembled for each Plan call.
	occ   Occupancy
	trace *Trace

	// probe is the attached lifecycle observer (nil = off, the default).
	// Every use is nil-guarded; see probe.go for the overhead contract.
	probe Probe

	// obsRun is the attached observability collector (nil = off, the
	// default). See obs.go.
	obsRun *obs.Run

	// attrOn gates virtual-time attribution (see attr.go). attrIdleSince
	// stamps, per core, when the thread last became idle within the loop
	// it is bound to (cores are held by at most one execution, so the
	// per-core array needs no per-exec split); attrLoops accumulates
	// per-loop decompositions across the run.
	attrOn        bool
	attrIdleSince []sim.Time
	attrLoops     map[string]obs.LoopAttr
	lastLoopAttr  obs.LoopAttr

	// Run-level aggregates.
	overheadSec       float64
	elapsedLoopSec    float64
	weightedThreadSec float64
	stealsLocal       int
	stealsRemote      int
	stealAttempts     int
	loopExecutions    int
}

// victimSet is a plan-scoped partition of the active cores, precomputed
// at SubmitLoop. Entries preserve plan.Active order, which the
// draw-order-preserving shuffle in trySteal depends on (see DESIGN.md).
// Each in-flight execution carries its own partition, so concurrent loops
// steal strictly within their own active sets. Entries are core indices,
// not *thread, so building and shuffling them writes no pointers.
type victimSet struct {
	flat         []int32   // all active cores (StealFlat scans these)
	localByNode  [][]int32 // active cores on each node
	remoteByNode [][]int32 // active cores on every other node
	// back is the one array every group above slices; count holds the
	// per-node active counts and fill cursors. Both persist across the
	// executions of a pooled record.
	back  []int32
	count []int
}

type thread struct {
	core    int
	node    int
	deque   []*Task // owner pops from the back, thieves scan from the front
	idle    bool
	pending bool // a dispatch event is already scheduled

	// exec is the in-flight loop execution this thread is bound to, nil
	// while unclaimed. Set when a plan claims the core at submission,
	// cleared at the loop's completion; plan disjointness guarantees at
	// most one execution holds a thread at a time.
	exec *loopExec

	// In-flight dispatch state. A thread has at most one acquired task
	// between dispatch and completion, so the per-dispatch values live
	// here instead of in per-dispatch closures.
	curTask   *Task
	curStolen bool
	curRemote bool
	curFrom   int // victim core of a stolen task, -1 otherwise
	curStart  sim.Time

	// Pre-bound callbacks (created once in New): the wake->dispatch hop,
	// the dispatch-cost delay, and the machine's task-done notification.
	dispatchFn sim.Event
	execFn     sim.Event
	taskDoneFn func()
}

// loopExec is the record of one in-flight loop execution. Records are
// pooled (Runtime.execFree): the buffers below the per-execution state
// keep their capacity from one execution to the next.
type loopExec struct {
	id           int // execution ID: the in-flight table key
	spec         *LoopSpec
	plan         *Plan
	remaining    int
	start        sim.Time
	exec         int // per-loop execution ordinal for tracing
	startCompute float64
	startMemory  float64
	st           LoopStats
	done         func(*LoopStats)

	// victims is this execution's victim partition; tasks is its task
	// backing store. Both are execution-scoped so that concurrent loops
	// steal and release independently.
	victims victimSet
	tasks   []Task

	// Pre-bound lifecycle events (created once per record): the
	// post-setup task release and the post-barrier completion.
	releaseFn  sim.Event
	loopDoneFn sim.Event

	// Attribution scratch (only written under Runtime.attrOn): the release
	// and finish instants plus the loop's dispatch-cost, imbalance, and
	// queue-wait accumulators.
	releaseAt sim.Time
	finishAt  sim.Time
	aSteal    float64
	aImb      float64
	aQueue    float64
}

// New builds a runtime over a machine with the given scheduler.
func New(mach *machine.Machine, sched Scheduler, costs Costs) *Runtime {
	if mach == nil {
		panic("taskrt: nil machine")
	}
	if sched == nil {
		panic("taskrt: nil scheduler")
	}
	rt := &Runtime{
		mach:  mach,
		topo:  mach.Topology(),
		eng:   mach.Engine(),
		costs: costs,
		sched: sched,
		rng:   mach.RNG().Split(0x7a5b),
	}
	nCores := rt.topo.NumCores()
	// Capacities are fixed up front so the steal path never grows them
	// mid-campaign: the shuffle scratch holds at most every active core,
	// and each deque's start covers chunked-steal transfers (releaseTasks
	// warms wider master queues once). The deques share one array.
	const dequeCap = 16
	rt.threads = make([]thread, nCores)
	rt.victimScratch = make([]int32, nCores)
	deques := make([]*Task, nCores*dequeCap)
	for c := range rt.threads {
		th := &rt.threads[c]
		th.core = c
		th.node = rt.topo.NodeOfCore(c)
		th.idle = true
		th.deque = deques[c*dequeCap : c*dequeCap : (c+1)*dequeCap]
		th.dispatchFn = func() { rt.dispatch(th) }
		th.execFn = func() { rt.execTask(th) }
		th.taskDoneFn = func() { rt.taskDone(th) }
	}
	return rt
}

// Machine returns the simulated machine.
func (rt *Runtime) Machine() *machine.Machine { return rt.mach }

// Topology returns the machine topology.
func (rt *Runtime) Topology() *topology.Machine { return rt.topo }

// Scheduler returns the active scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

// NewPlan returns an empty plan for a Scheduler's Plan method to fill.
// Its Active and Place slices are empty but keep the capacity of the
// executions the plan served before. The runtime takes a plan it issued
// back once the execution it was returned for has completed — after the
// loop's done callback and the scheduler's Observe have returned — and
// issues it again, so a scheduler must not keep it past that point. A
// plan built any other way is never recycled.
func (rt *Runtime) NewPlan() *Plan {
	n := len(rt.planFree)
	if n == 0 {
		return &Plan{issued: true}
	}
	p := rt.planFree[n-1]
	rt.planFree = rt.planFree[:n-1]
	*p = Plan{Active: p.Active[:0], Place: p.Place[:0], issued: true}
	return p
}

// SubmitLoop starts one taskloop execution. done fires after the barrier
// with the loop's statistics, which stay valid only until done returns
// (see LoopStats). Executions from different programs may be in flight
// concurrently as long as their plans are core-disjoint; a plan claiming
// a held core panics at validation. Within one program, loops still
// serialize through their barriers (RunProgram / the workload admission
// queue submit the next loop only from the previous loop's done
// callback). The execution record comes from the runtime's pool, so on a
// warmed runtime whose scheduler plans through NewPlan a loop allocates
// nothing.
func (rt *Runtime) SubmitLoop(spec *LoopSpec, done func(*LoopStats)) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	occ := rt.occupancy()
	plan := rt.sched.Plan(rt, spec, occ)
	plan.Owner = spec.Program
	if err := plan.Validate(spec, rt.topo.NumCores(), occ); err != nil {
		panic(err)
	}
	if rt.probe != nil {
		rt.probe.LoopStart(spec, plan)
	}

	le := rt.newExec()
	le.id = rt.nextExecID
	le.spec = spec
	le.plan = plan
	le.remaining = len(plan.Place)
	le.start = rt.eng.Now()
	le.done = done
	rt.nextExecID++
	le.st.ActiveThreads = len(plan.Active)
	if rt.trace != nil {
		le.exec = rt.trace.beginLoop(spec)
	}
	le.startCompute, le.startMemory = rt.mach.TimeSplit()
	rt.execs = append(rt.execs, le)
	for _, c := range plan.Active {
		rt.threads[c].exec = le
	}
	le.buildVictims(rt)

	setup := sim.Duration(plan.SelectOverheadSec) +
		rt.costs.TaskCreate*sim.Duration(len(plan.Place))
	rt.chargeOverhead(le, float64(setup))

	rt.eng.After(setup, le.releaseFn)
}

// newExec takes an execution record from the pool, reset for a new
// execution, or builds one with its callbacks bound.
func (rt *Runtime) newExec() *loopExec {
	n := len(rt.execFree)
	if n == 0 {
		le := &loopExec{}
		le.releaseFn = func() { rt.releaseTasks(le) }
		le.loopDoneFn = func() { rt.completeLoop(le) }
		nNodes := rt.topo.NumNodes()
		le.st.NodeTaskSeconds = make([]float64, nNodes)
		le.st.NodeTasks = make([]int, nNodes)
		return le
	}
	le := rt.execFree[n-1]
	rt.execFree = rt.execFree[:n-1]
	st := LoopStats{NodeTaskSeconds: le.st.NodeTaskSeconds, NodeTasks: le.st.NodeTasks}
	clear(st.NodeTaskSeconds)
	clear(st.NodeTasks)
	*le = loopExec{
		st:         st,
		victims:    le.victims,
		tasks:      le.tasks,
		releaseFn:  le.releaseFn,
		loopDoneFn: le.loopDoneFn,
	}
	return le
}

// occupancy assembles the live occupancy view over the in-flight table.
// The view is runtime-owned and rebuilt per call; Plan implementations
// must not retain it.
func (rt *Runtime) occupancy() *Occupancy {
	o := &rt.occ
	if len(o.held) != rt.topo.NumCores() {
		o.held = make([]bool, rt.topo.NumCores())
	}
	for i := range o.held {
		o.held[i] = false
	}
	for _, le := range rt.execs {
		for _, c := range le.plan.Active {
			o.held[c] = true
		}
	}
	return o
}

// InFlight reports the number of loop executions currently in the table.
func (rt *Runtime) InFlight() int { return len(rt.execs) }

// freeCores reports how many cores no in-flight execution holds. Plans
// are core-disjoint, so the active sets sum exactly.
func (rt *Runtime) freeCores() int {
	held := 0
	for _, le := range rt.execs {
		held += len(le.plan.Active)
	}
	return rt.topo.NumCores() - held
}

// buildVictims computes the execution's victim partition. Partitions are
// plan-scoped: Active is fixed for the whole loop, so the grouping never
// changes between steal attempts — only the scan order does, and that is
// (re)drawn per attempt over the runtime's shuffle scratch. One backing
// array holds flat, then the local groups (which partition Active), then
// the remote groups (which tile it once per other node); a pooled record
// reuses it, so only a wider plan than any before allocates.
func (le *loopExec) buildVictims(rt *Runtime) {
	nNodes := rt.topo.NumNodes()
	active := le.plan.Active
	nActive := len(active)
	v := &le.victims
	if len(v.count) != 2*nNodes {
		v.count = make([]int, 2*nNodes)
		v.localByNode = make([][]int32, nNodes)
		v.remoteByNode = make([][]int32, nNodes)
	}
	if need := nActive * (nNodes + 1); cap(v.back) < need {
		v.back = make([]int32, need)
	}
	back := v.back[:cap(v.back)]
	// prefix[n] counts the active cores on nodes below n; seen[n] counts
	// those on node n placed so far (and ends as n's total).
	prefix, seen := v.count[:nNodes], v.count[nNodes:]
	clear(seen)
	for _, c := range active {
		seen[rt.threads[c].node]++
	}
	sum := 0
	for n := range prefix {
		prefix[n] = sum
		sum += seen[n]
	}
	clear(seen)
	// Node n's local group starts after flat and the lower nodes' local
	// groups; its remote group after every local group and the lower
	// nodes' remote groups, which hold nActive-perNode entries each.
	for i, c := range active {
		core, node := int32(c), rt.threads[c].node
		back[i] = core
		for n := 0; n < nNodes; n++ {
			if n == node {
				back[nActive+prefix[n]+seen[n]] = core
			} else {
				back[(2+n)*nActive-prefix[n]+i-seen[n]] = core
			}
		}
		seen[node]++
	}
	v.flat = back[:nActive:nActive]
	for n := 0; n < nNodes; n++ {
		l := nActive + prefix[n]
		v.localByNode[n] = back[l : l+seen[n] : l+seen[n]]
		r := (2+n)*nActive - prefix[n]
		v.remoteByNode[n] = back[r : r+nActive-seen[n] : r+nActive-seen[n]]
	}
}

// releaseTasks enqueues the execution's tasks and wakes its active
// threads; it runs once per loop after the setup delay.
func (rt *Runtime) releaseTasks(le *loopExec) {
	plan := le.plan
	if rt.attrOn {
		rt.attrRelease(le)
	}
	if cap(le.tasks) < len(plan.Place) {
		le.tasks = make([]Task, len(plan.Place))
	}
	tasks := le.tasks[:len(plan.Place)]
	for i, tp := range plan.Place {
		th := &rt.threads[tp.Core]
		tasks[i] = Task{Lo: tp.Lo, Hi: tp.Hi, Strict: tp.Strict, Home: th.node}
		th.deque = append(th.deque, &tasks[i])
	}
	for _, c := range plan.Active {
		rt.wake(c)
	}
}

// wake schedules a dispatch attempt for an idle thread.
func (rt *Runtime) wake(core int) {
	th := &rt.threads[core]
	if !th.idle || th.pending {
		return
	}
	th.pending = true
	rt.eng.After(0, th.dispatchFn)
}

// dispatch makes a thread acquire and execute its next task, or go idle.
// Idle threads need no mid-loop wakeups: tasks are only enqueued at loop
// start, so work available to a given thread is monotonically consumed —
// once a thread finds nothing it is allowed to take, that stays true for
// the rest of the loop.
func (rt *Runtime) dispatch(th *thread) {
	th.pending = false
	le := th.exec
	if le == nil {
		th.idle = true
		return
	}
	task := th.pop()
	var stolen, remote, attempted bool
	var scanned int
	var victim *thread
	if task == nil {
		task, remote, scanned, victim = rt.trySteal(th, le)
		stolen = task != nil
		attempted = le.plan.Mode != StealOff
	}
	if stolen && rt.probe != nil {
		rt.probe.Steal(th.core, victim.core, task, remote, true)
	}
	if stolen && remote && victim != nil && le.plan.StealChunk > 1 {
		// Chunked remote steal (shepherd-style): transfer extra eligible
		// tasks into the thief's own deque so its node's subsequent
		// dispatches are local pops instead of further remote steals.
		for n := 1; n < le.plan.StealChunk; n++ {
			extra := victim.stealFor(th.node, rt.rng)
			if extra == nil {
				break
			}
			if rt.probe != nil {
				rt.probe.Steal(th.core, victim.core, extra, remote, false)
			}
			th.deque = append(th.deque, extra)
		}
	}
	// Failed scans are attempts too: they cost VictimScan time, and the
	// steal-pressure statistics must reflect them (a loop whose threads
	// scan fruitlessly is not the same as one that never steals).
	if attempted {
		rt.stealAttempts++
		le.st.StealAttempts++
	}
	cost := rt.costs.Dispatch + rt.costs.VictimScan*sim.Duration(scanned)
	if task == nil {
		// A failed full scan still costs bookkeeping time before the
		// thread parks; charge it to overhead (the thread is idle anyway,
		// so no virtual-time delay is modelled).
		rt.chargeOverhead(le, float64(rt.costs.VictimScan*sim.Duration(scanned)))
		th.idle = true
		if rt.attrOn {
			rt.attrIdleSince[th.core] = rt.eng.Now()
		}
		return
	}
	th.idle = false
	if rt.attrOn {
		le.aQueue += float64(rt.eng.Now() - le.releaseAt)
		le.aSteal += float64(cost)
	}

	if stolen {
		if remote {
			rt.stealsRemote++
			le.st.StealsRemote++
		} else {
			rt.stealsLocal++
			le.st.StealsLocal++
		}
	}
	rt.chargeOverhead(le, float64(cost))

	th.curTask = task
	th.curStolen = stolen
	th.curRemote = remote
	th.curFrom = -1
	if stolen && victim != nil {
		th.curFrom = victim.core
	}
	rt.eng.After(cost, th.execFn)
}

// execTask starts the thread's acquired task on the machine after the
// dispatch cost has elapsed.
func (rt *Runtime) execTask(th *thread) {
	le := th.exec
	if le == nil {
		panic("taskrt: task dispatched outside a loop")
	}
	task := th.curTask
	if rt.probe != nil {
		rt.probe.TaskStart(th.core, task)
	}
	compute, acc := le.spec.Demand(task.Lo, task.Hi)
	th.curStart = rt.eng.Now()
	rt.mach.Exec(th.core, compute, acc, th.taskDoneFn)
}

// taskDone records the finished task and drives the thread's next dispatch.
func (rt *Runtime) taskDone(th *thread) {
	le := th.exec
	if le == nil {
		panic("taskrt: task completed outside a loop")
	}
	if rt.trace != nil {
		task := th.curTask
		ta := rt.mach.LastTaskAttr()
		rt.trace.record(TaskEvent{
			LoopID: le.spec.ID, LoopName: le.spec.Name, Exec: le.exec,
			Program: le.spec.Program,
			Lo:      task.Lo, Hi: task.Hi, Core: th.core, Node: th.node,
			StartSec: float64(th.curStart), EndSec: float64(rt.eng.Now()),
			Stolen: th.curStolen, Remote: th.curRemote,
			Strict: task.Strict, FromCore: th.curFrom,
			IdealSec: ta.IdealComputeSec, CoreSpeedSec: ta.CoreSpeedSec,
			IdealMemSec: ta.IdealMemorySec, LocalitySec: ta.LocalitySec,
			InterferenceSec: ta.InterferenceSec,
		})
		rt.sampleResources()
	}
	rt.onTaskDone(th, float64(rt.eng.Now()-th.curStart))
}

// sampleResources appends one per-node resource sample at the current
// virtual time. Trace-gated: it runs once per task completion and only
// while tracing is enabled, never on the metrics-off hot path.
func (rt *Runtime) sampleResources() {
	now := float64(rt.eng.Now())
	for n := 0; n < rt.topo.NumNodes(); n++ {
		rt.trace.Resources = append(rt.trace.Resources, ResSample{
			TimeSec: now, Node: n,
			MCBytes: rt.mach.ControllerBytes(n),
			Queue:   rt.mach.ControllerLoad(n),
		})
	}
}

func (rt *Runtime) onTaskDone(th *thread, durSec float64) {
	le := th.exec
	if le == nil {
		panic("taskrt: task completed outside a loop")
	}
	if rt.probe != nil {
		rt.probe.TaskDone(th.core, th.curTask)
	}
	le.st.NodeTaskSeconds[th.node] += durSec
	le.st.NodeTasks[th.node]++
	le.remaining--
	if le.remaining == 0 {
		th.idle = true
		if rt.attrOn {
			rt.attrIdleSince[th.core] = rt.eng.Now()
			rt.attrFinish(le)
		}
		rt.finishLoop(le)
		return
	}
	rt.dispatch(th)
}

func (rt *Runtime) finishLoop(le *loopExec) {
	barrier := rt.costs.Barrier * sim.Duration(len(le.plan.Active))
	rt.chargeOverhead(le, float64(barrier))
	rt.eng.After(barrier, le.loopDoneFn)
}

// completeLoop fires after the barrier: it finalizes the loop's stats,
// hands them to the scheduler, and removes the execution from the
// in-flight table, releasing its cores for waiting submissions.
func (rt *Runtime) completeLoop(le *loopExec) {
	le.st.Elapsed = rt.eng.Now() - le.start
	compute, memory := rt.mach.TimeSplit()
	le.st.ComputeSeconds = compute - le.startCompute
	le.st.MemorySeconds = memory - le.startMemory
	if rt.attrOn {
		rt.attrCompleteLoop(le)
	}
	if rt.trace != nil {
		rt.trace.endLoop(le.spec, le.exec, le.start, rt.eng.Now(), le.st.ActiveThreads)
	}
	if rt.obsRun != nil {
		rt.observeLoop(le)
	}
	if rt.probe != nil {
		rt.probe.LoopDone(le.spec, le.plan, &le.st)
	}
	for i, e := range rt.execs {
		if e == le {
			rt.execs = append(rt.execs[:i], rt.execs[i+1:]...)
			break
		}
	}
	for _, c := range le.plan.Active {
		if th := &rt.threads[c]; th.exec == le {
			th.exec = nil
		}
	}
	rt.loopExecutions++
	rt.elapsedLoopSec += float64(le.st.Elapsed)
	rt.weightedThreadSec += float64(le.st.Elapsed) * float64(le.st.ActiveThreads)
	rt.sched.Observe(rt, le.spec, &le.st)
	if le.done != nil {
		le.done(&le.st)
	}
	// Only now, with Observe and done returned, may the record and the
	// plan serve another execution.
	if le.plan.issued {
		rt.planFree = append(rt.planFree, le.plan)
	}
	rt.execFree = append(rt.execFree, le)
}

func (rt *Runtime) chargeOverhead(le *loopExec, sec float64) {
	rt.overheadSec += sec
	if le != nil {
		le.st.OverheadSec += sec
	}
}

// shuffledVictims copies src (minus skip; -1 skips nothing) into the
// runtime's scratch buffer and shuffles it in place with a Fisher–Yates
// that performs the exact Intn draw sequence of sim.RNG.Perm(len(result)).
// Applying Perm's swap sequence directly to the victim values instead of
// to an index permutation visits victims in the identical order while
// allocating nothing — the draw-order contract campaign determinism rests
// on.
func (rt *Runtime) shuffledVictims(src []int32, skip int32) []int32 {
	s := rt.victimScratch[:0]
	for _, v := range src {
		if v != skip {
			s = append(s, v)
		}
	}
	for i := len(s) - 1; i > 0; i-- {
		j := rt.rng.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// trySteal searches for a stealable task per the current plan's mode.
// It reports the task, whether it crossed NUMA nodes, how many victim
// deques were inspected (for overhead accounting), and the victim thread
// (for chunked steals).
func (rt *Runtime) trySteal(th *thread, le *loopExec) (*Task, bool, int, *thread) {
	plan := le.plan
	victims := &le.victims
	scanned := 0
	switch plan.Mode {
	case StealOff:
		return nil, false, 0, nil
	case StealFlat:
		// The shuffle spans every active thread (the thief included, as in
		// the LLVM runtime's victim draw); the thief skips itself while
		// scanning.
		for _, c := range rt.shuffledVictims(victims.flat, -1) {
			if int(c) == th.core {
				continue
			}
			scanned++
			v := &rt.threads[c]
			if t := v.stealFor(th.node, rt.rng); t != nil {
				return t, v.node != th.node, scanned, v
			}
		}
		return nil, false, scanned, nil
	case StealHierarchical:
		for _, c := range rt.shuffledVictims(victims.localByNode[th.node], int32(th.core)) {
			scanned++
			v := &rt.threads[c]
			if t := v.stealFor(th.node, rt.rng); t != nil {
				return t, false, scanned, v
			}
		}
		// The local scan found every same-node deque empty, so the
		// thief's node is out of queued work: inter-node stealing is
		// allowed if the plan permits it.
		if plan.InterNodeSteal {
			for _, c := range rt.shuffledVictims(victims.remoteByNode[th.node], -1) {
				scanned++
				v := &rt.threads[c]
				if t := v.stealFor(th.node, rt.rng); t != nil {
					return t, true, scanned, v
				}
			}
		}
		return nil, false, scanned, nil
	default:
		panic(fmt.Sprintf("taskrt: unknown steal mode %v", plan.Mode))
	}
}

// pop takes the owner's newest task (LIFO).
func (th *thread) pop() *Task {
	n := len(th.deque)
	if n == 0 {
		return nil
	}
	t := th.deque[n-1]
	th.deque = th.deque[:n-1]
	return t
}

// stealFor removes and returns a uniformly random task a thief from
// thiefNode may take, honouring NUMA-strictness. Random-position stealing
// models how the LLVM runtime's recursive taskloop splitting scatters
// stolen iteration subtrees across the machine: a FIFO discipline would
// make the in-flight tasks a consecutive iteration window, clustering
// their traffic on one or two memory controllers — a pathology the real
// runtime does not exhibit.
//
// The removal is an order-preserving copy inside the deque's backing
// array (no allocation). It must stay order-preserving: the owner pops
// from the back and the uniform pick maps onto deque order, so a
// swap-remove would change which tasks later draws select and break the
// campaign determinism contract.
func (th *thread) stealFor(thiefNode int, rng *sim.RNG) *Task {
	eligible := 0
	for _, t := range th.deque {
		if !t.Strict || t.Home == thiefNode {
			eligible++
		}
	}
	if eligible == 0 {
		return nil
	}
	pick := rng.Intn(eligible)
	drawn := pick
	for i, t := range th.deque {
		if t.Strict && t.Home != thiefNode {
			continue
		}
		if pick == 0 {
			th.deque = append(th.deque[:i], th.deque[i+1:]...)
			return t
		}
		pick--
	}
	// Unreachable while the eligibility count above and this scan agree;
	// reaching it means the deque changed between the two passes (data race)
	// or the predicate diverged. Dump enough state to make a fuzzer-found
	// violation actionable.
	panic(stealForStateDump(th, thiefNode, eligible, drawn))
}

// stealForStateDump renders the victim/thief state for the stealFor
// consistency panic: the counted-eligible vs scanned mismatch cannot be
// debugged from a bare message.
func stealForStateDump(th *thread, thiefNode, eligible, drawn int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "taskrt: stealFor bookkeeping error: drew %d of %d eligible tasks but scan ran dry\n",
		drawn, eligible)
	fmt.Fprintf(&b, "  victim: core %d (node %d), %d queued tasks; thief node %d\n",
		th.core, th.node, len(th.deque), thiefNode)
	for i, t := range th.deque {
		elig := !t.Strict || t.Home == thiefNode
		fmt.Fprintf(&b, "  deque[%d]: iters [%d,%d) strict=%v home=%d eligible=%v\n",
			i, t.Lo, t.Hi, t.Strict, t.Home, elig)
	}
	return b.String()
}

// QueuedTasks reports the number of tasks currently queued on a core
// (diagnostics and tests). Out-of-range cores report zero.
func (rt *Runtime) QueuedTasks(core int) int {
	if core < 0 || core >= len(rt.threads) {
		return 0
	}
	return len(rt.threads[core].deque)
}
