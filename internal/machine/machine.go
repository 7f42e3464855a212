// Package machine executes tasks on the simulated NUMA hardware. It ties
// the discrete-event engine, topology, and memory system together with a
// fluid contention model:
//
// A running task is a fluid job with a remaining compute component
// (private, runs at the core's speed) and remaining byte components on
// each bandwidth resource (shared). Compute runs first; the memory
// components then drain in parallel (a task pulls from several controllers
// at once), so at any instant the task's remaining time is
//
//	T = compute/coreSpeed + max( ctrlBytes/CoreStreamBW,
//	                             max_r bytes_r * svc_r / (w_r * EffBW(r, load_r)) )
//
// where w_r is the task's byte fraction on resource r, svc_r the sum of
// such fractions over all running tasks (fair-share split), and load_r the
// queue-pressure-weighted load that degrades the resource's delivered
// bandwidth (see memsys.EffectiveBandwidth). The first max term is the
// core's aggregate memory port: one core cannot move controller bytes
// faster than CoreStreamBW no matter how many controllers serve it.
//
// All components drain proportionally, so the task finishes exactly when T
// elapses. Whenever a task starts or finishes, the loads on its resources
// change; every task sharing those resources is advanced to the current
// time and its completion event rescheduled. This is event-driven
// processor sharing: exact for the fluid model, with cost proportional to
// the number of co-running tasks rather than to bytes moved. The
// verification test suite checks the implementation against closed forms
// of this model.
package machine

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// NoiseConfig controls the stochastic components that give run-to-run
// variance, mirroring the sources the paper attributes its variability to:
// dynamic frequency asymmetry, task-length jitter, and rare system-noise
// episodes (their BT outlier).
type NoiseConfig struct {
	Enabled bool
	// CoreSpeedSigma: each core's speed is drawn once per run from
	// N(1, sigma), clamped to [0.7, 1.3].
	CoreSpeedSigma float64
	// TaskJitterSigma: every task execution is scaled by N(1, sigma),
	// clamped to [0.5, 2].
	TaskJitterSigma float64
	// OutlierProb: per-run probability that one NUMA node runs slow for
	// the whole run (external noise / frequency scaling).
	OutlierProb float64
	// OutlierSlowdown: speed factor applied to the slow node's cores.
	OutlierSlowdown float64
}

// DefaultNoise returns the calibration used by the experiments.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{
		Enabled:         true,
		CoreSpeedSigma:  0.015,
		TaskJitterSigma: 0.03,
		OutlierProb:     0.05,
		OutlierSlowdown: 0.85,
	}
}

// Config assembles a machine.
type Config struct {
	Topo  *topology.Machine
	Seed  uint64
	Noise NoiseConfig
	// Bandwidth overrides; zero values keep memsys defaults.
	ControllerBW float64
	LinkBW       float64
	CoreStreamBW float64
	Alpha        float64 // negative means "use default"; 0 is a valid override
	// Beta: 0 keeps the default, positive overrides, negative forces 0
	// (disables the quadratic contention term).
	Beta float64
	// DisableL3 switches the cache model off (ablation experiments).
	DisableL3 bool
}

// Machine is one simulated run's hardware instance. It is not safe for
// concurrent use; the simulation is single-threaded.
type Machine struct {
	eng      *sim.Engine
	topo     *topology.Machine
	mem      *memsys.Memory
	res      *memsys.ResourceSet
	caches   *memsys.CacheSet
	resolver *memsys.Resolver

	rng       *sim.RNG
	noise     NoiseConfig
	coreSpeed []float64

	running    []*fluidTask   // by core; nil when idle
	nRunning   int            // non-nil entries of running
	byResource [][]*fluidTask // active tasks per resource
	// ls holds the per-resource load, service and delivered-bandwidth
	// aggregates side by side: the rate computation reads them for every
	// resource of every sharer at every task boundary, so keeping them on
	// one cache line matters.
	ls           []loadSvc
	externalLoad []float64 // sustained interferer load (DisturbNode)
	// nCtrl caches the controller count: resource r is a memory controller
	// iff r < nCtrl (memsys lays controllers out first), and the hot loop
	// tests this per resource without chasing through ResourceSet/topology.
	nCtrl int

	// ftFree pools fluidTask objects (and their per-resource slices and
	// completion callbacks) across Execs: a campaign starts millions of
	// tasks, and recycling them keeps the exec path allocation-free.
	ftFree []*fluidTask
	// epoch / affected implement the allocation-free distinct-task sweep
	// of collectAffected (epoch marking instead of a per-call map).
	epoch    uint64
	affected []*fluidTask

	// dirtyHead/dirtyTail anchor the per-instant dirty list, an intrusive
	// doubly-linked list threaded through the tasks themselves so marking,
	// re-marking (move to tail), unlinking on completion, and the flush are
	// all O(1) per task and never allocate. Re-touching a task within an
	// instant moves it to the tail, so the flush re-rates each task exactly
	// once, in last-touch order: each rescheduled completion draws its
	// sequence number in that order, which fixes the order of same-instant
	// completions downstream.
	dirtyHead *fluidTask
	dirtyTail *fluidTask

	busySeconds  []float64 // per-core task execution time
	tasksStarted uint64
	rateEvals    uint64        // remainingTime evaluations (RateEvaluations)
	demand       memsys.Demand // scratch buffer
	counters     Counters

	// obsOn gates the time-weighted resource-load integral behind the
	// observability layer: when off, load changes skip the integral entirely
	// so the hot path stays at PR 2 cost. loadIntSec[r] is ∫ load_r dt in
	// load-seconds; dividing by elapsed time yields the mean queue depth.
	obsOn       bool
	loadIntSec  []float64
	lastLoadUpd []sim.Time

	// attrOn gates per-task virtual-time attribution (see attr.go). The
	// accounting is O(1) per task at Exec and completion, allocation-free,
	// and output-neutral.
	attrOn     bool
	attrTask   obs.TaskAttr
	attrInterf []float64 // interference seconds by solo-bottleneck resource; last = port
	lastAttr   obs.TaskAttr
}

// loadSvc holds the per-resource aggregates the rate computation needs.
// eff is a function of load alone (the resource's bandwidth and α/β never
// change after New), so it is recomputed wherever load changes (setLoad)
// instead of once per sharer per refresh.
type loadSvc struct {
	load float64 // queue-pressure load (drives efficiency)
	svc  float64 // service-weight sum (drives fair shares)
	eff  float64 // delivered bandwidth under load: res.Eff(bw_r, load)
}

// resShare is one task's stake in one bandwidth resource. The active
// resources of a task are stored densely (a task touches a handful of the
// machine's resources) so refresh walks one small contiguous array instead
// of gathering from four parallel resource-indexed slices.
type resShare struct {
	r      int     // resource ID
	bytes  float64 // remaining (jittered) bytes to drain on r
	weight float64 // byte fraction of the task's traffic on r
	loadW  float64 // queue-pressure-scaled load contribution on r
}

type fluidTask struct {
	core       int
	compute    float64    // remaining compute seconds (at unit speed)
	compute0   float64    // initial compute seconds (for counter accounting)
	res        []resShare // dense per-resource state, in resource-ID order
	pos        []int      // index of this task in byResource[r], for O(1) removal
	started    sim.Time
	lastUpdate sim.Time
	remaining  float64 // cached T at lastUpdate
	handle     sim.Handle
	done       func()
	// mark is the collectAffected epoch stamp (see Machine.epoch).
	mark uint64
	// dirtyPrev/dirtyNext/onDirty link the task into the machine's
	// per-instant dirty list (see Machine.dirtyHead).
	dirtyPrev *fluidTask
	dirtyNext *fluidTask
	onDirty   bool
	// completeFn is the pre-bound completion callback, created once per
	// pooled object so refresh never allocates a closure.
	completeFn sim.Event
	// attrSolo/attrLocal/attrBneck carry the attribution counterfactuals
	// priced at Exec (see attr.go); only read when Machine.attrOn.
	attrSolo  float64
	attrLocal float64
	attrBneck int32
}

// allocFT takes a fluidTask from the pool, or grows it. The completion
// callback binds to the object once; the binding stays valid across reuse
// because pooled objects keep their identity.
func (m *Machine) allocFT() *fluidTask {
	if n := len(m.ftFree); n > 0 {
		ft := m.ftFree[n-1]
		m.ftFree[n-1] = nil
		m.ftFree = m.ftFree[:n-1]
		return ft
	}
	ft := &fluidTask{}
	ft.completeFn = func() { m.complete(ft) }
	return ft
}

// recycleFT clears a finished task's state and returns it to the pool. The
// dense resource entries just truncate (the next Exec overwrites them);
// only pos keeps live meaning between uses and is rewritten on insert.
func (m *Machine) recycleFT(ft *fluidTask) {
	ft.res = ft.res[:0]
	ft.compute, ft.compute0, ft.remaining = 0, 0, 0
	ft.done = nil
	ft.handle = sim.Handle{}
	// A completing task may still sit on the dirty list (deferred by an
	// earlier boundary in this instant); it must not be refreshed after
	// teardown, nor may a stale link refresh its next incarnation.
	if ft.onDirty {
		m.dirtyUnlink(ft)
	}
	m.ftFree = append(m.ftFree, ft)
}

// New builds a machine over a fresh engine.
func New(cfg Config) *Machine {
	if cfg.Topo == nil {
		panic("machine: nil topology")
	}
	m := &Machine{
		eng:   sim.NewEngine(),
		topo:  cfg.Topo,
		noise: cfg.Noise,
		rng:   sim.NewRNG(cfg.Seed),
	}
	m.eng.SetFlusher(m.FlushRefresh)
	m.mem = memsys.NewMemory(cfg.Topo)
	m.res = memsys.NewResourceSet(cfg.Topo)
	if cfg.ControllerBW > 0 {
		m.res.ControllerBW = cfg.ControllerBW
	}
	if cfg.LinkBW > 0 {
		m.res.LinkBW = cfg.LinkBW
	}
	if cfg.CoreStreamBW > 0 {
		m.res.CoreStreamBW = cfg.CoreStreamBW
	}
	if cfg.Alpha >= 0 {
		m.res.Alpha = cfg.Alpha
	}
	if cfg.Beta > 0 {
		m.res.Beta = cfg.Beta
	} else if cfg.Beta < 0 {
		m.res.Beta = 0
	}
	if cfg.DisableL3 {
		m.caches = memsys.NewDisabledCacheSet(m.mem)
	} else {
		m.caches = memsys.NewCacheSet(m.mem)
	}
	m.resolver = memsys.NewResolver(cfg.Topo, m.res, m.caches)

	nc := cfg.Topo.NumCores()
	m.running = make([]*fluidTask, nc)
	m.busySeconds = make([]float64, nc)
	m.byResource = make([][]*fluidTask, m.res.Count())
	m.ls = make([]loadSvc, m.res.Count())
	m.externalLoad = make([]float64, m.res.Count())
	m.nCtrl = cfg.Topo.NumNodes()
	for r := range m.ls {
		m.setLoad(r, 0)
	}
	m.ftFree = make([]*fluidTask, 0, nc)
	m.coreSpeed = make([]float64, nc)
	m.counters.ResourceBytes = make([]float64, m.res.Count())
	m.counters.RealizedBytes = make([]float64, m.res.Count())
	m.drawCoreSpeeds()
	return m
}

func (m *Machine) drawCoreSpeeds() {
	for c := range m.coreSpeed {
		m.coreSpeed[c] = 1
	}
	if !m.noise.Enabled {
		return
	}
	for c := range m.coreSpeed {
		s := 1 + m.noise.CoreSpeedSigma*m.rng.Normal()
		if s < 0.7 {
			s = 0.7
		}
		if s > 1.3 {
			s = 1.3
		}
		m.coreSpeed[c] = s
	}
	if m.rng.Float64() < m.noise.OutlierProb {
		slow := m.rng.Intn(m.topo.NumNodes())
		for _, c := range m.topo.CoresOfNode(slow) {
			m.coreSpeed[c] *= m.noise.OutlierSlowdown
		}
	}
}

// Engine returns the simulation engine driving this machine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Topology returns the machine's topology.
func (m *Machine) Topology() *topology.Machine { return m.topo }

// Memory returns the machine's memory system (for region allocation).
func (m *Machine) Memory() *memsys.Memory { return m.mem }

// Resources returns the bandwidth resource set. Its bandwidths, Alpha and
// Beta are read-only once New returns: the machine caches each resource's
// delivered bandwidth under its current load (loadSvc.eff), and a later
// write would leave that cache stale. Calibrate through Config instead.
func (m *Machine) Resources() *memsys.ResourceSet { return m.res }

// Caches returns the L3 cache models.
func (m *Machine) Caches() *memsys.CacheSet { return m.caches }

// RNG returns the machine's root RNG (layers derive their own streams).
func (m *Machine) RNG() *sim.RNG { return m.rng }

// CoreSpeed returns the per-run speed factor of a core.
func (m *Machine) CoreSpeed(core int) float64 { return m.coreSpeed[core] }

// BusySeconds returns total task-execution seconds charged to a core.
func (m *Machine) BusySeconds(core int) float64 { return m.busySeconds[core] }

// TasksStarted returns the number of Exec calls.
func (m *Machine) TasksStarted() uint64 { return m.tasksStarted }

// RateEvaluations returns how many times a running task's remaining time
// was computed: one per refresh. Like sim.Engine.Rescheduled it measures
// the simulator's work, not what the simulation does, so it is for work
// budgets and benchmarks only and is never exported through obs.
func (m *Machine) RateEvaluations() uint64 { return m.rateEvals }

// Busy reports whether a core is currently executing a task.
func (m *Machine) Busy(core int) bool { return m.running[core] != nil }

// Quiesced reports whether the machine has no running tasks and all
// resource load accounting has returned to zero — the invariant that must
// hold after every completed run (float drift aside).
func (m *Machine) Quiesced() bool {
	for _, ft := range m.running {
		if ft != nil {
			return false
		}
	}
	for r := range m.ls {
		if m.ls[r].load-m.externalLoad[r] > 1e-9 || m.ls[r].svc > 1e-9 {
			return false
		}
		if len(m.byResource[r]) != 0 {
			return false
		}
	}
	return true
}

// DisturbNode injects a sustained external interferer on a NUMA node: an
// unrelated co-located workload that slows the node's cores by the given
// factor (CPU time stolen) and occupies its memory controller with the
// given queue-pressure load (bandwidth stolen). This models the "dynamic
// performance asymmetry caused by … interference from unrelated workloads"
// that motivates ILAN's node-mask selection: the disturbed node measures
// slower in the PTT, and reduced-width configurations avoid it.
//
// Call before (or between) runs; the disturbance persists until the
// machine is discarded.
func (m *Machine) DisturbNode(node int, coreSlowdown, memLoad float64) {
	if node < 0 || node >= m.topo.NumNodes() {
		panic(fmt.Sprintf("machine: DisturbNode(%d) out of range", node))
	}
	if coreSlowdown <= 0 || coreSlowdown > 1 {
		panic(fmt.Sprintf("machine: core slowdown %g out of (0, 1]", coreSlowdown))
	}
	if memLoad < 0 {
		panic(fmt.Sprintf("machine: negative memory load %g", memLoad))
	}
	for _, c := range m.topo.CoresOfNode(node) {
		m.coreSpeed[c] *= coreSlowdown
	}
	ctrl := int(m.res.Controller(node))
	if m.obsOn {
		m.obsAccumLoad(ctrl)
	}
	m.setLoad(ctrl, m.ls[ctrl].load+memLoad)
	m.externalLoad[ctrl] += memLoad
}

// Exec begins executing a task on the given core: computeSec seconds of
// private compute plus the memory traffic implied by accesses. done fires
// at completion. Exec panics if the core is already busy — the runtime
// above must serialize work per core.
func (m *Machine) Exec(core int, computeSec float64, accesses []memsys.Access, done func()) {
	if m.running[core] != nil {
		panic(fmt.Sprintf("machine: core %d already busy", core))
	}
	if computeSec < 0 {
		panic(fmt.Sprintf("machine: negative compute %g", computeSec))
	}
	m.tasksStarted++
	m.resolver.Resolve(core, accesses, &m.demand)

	jitter := 1.0
	if m.noise.Enabled && m.noise.TaskJitterSigma > 0 {
		jitter = 1 + m.noise.TaskJitterSigma*m.rng.Normal()
		if jitter < 0.5 {
			jitter = 0.5
		}
		if jitter > 2 {
			jitter = 2
		}
	}

	ft := m.allocFT()
	ft.core = core
	ft.compute = (computeSec + m.demand.CacheSeconds) * jitter
	ft.started = m.eng.Now()
	ft.lastUpdate = m.eng.Now()
	ft.done = done
	ft.compute0 = ft.compute
	m.counters.Tasks++
	m.counters.ComputeSeconds += ft.compute
	touched := 0
	for r, b := range m.demand.ResBytes {
		m.counters.ResourceBytes[r] += b
		if b > 0 {
			touched++
		}
	}
	// A pooled task keeps its arrays; a fresh one (or one that now touches
	// more resources than before) gets them at the size this task needs.
	if cap(ft.res) < touched {
		ft.res = make([]resShare, 0, touched)
	}
	if touched > 0 && ft.pos == nil {
		ft.pos = make([]int, len(m.demand.ResBytes))
	}
	var totalBytes float64
	for r, b := range m.demand.ResBytes {
		if b > 0 {
			jb := b * jitter
			ft.res = append(ft.res, resShare{r: r, bytes: jb})
			// Realized traffic is the jittered bytes the fluid model will
			// actually drain; ResourceBytes above stays the pre-jitter
			// service demand (what the scheduler asked for).
			m.counters.RealizedBytes[r] += jb
			totalBytes += b
		}
	}
	for i := range ft.res {
		e := &ft.res[i]
		e.weight = m.demand.ResBytes[e.r] / totalBytes
		// The load contribution scales the byte fraction by the pattern's
		// queue pressure: irregular traffic congests a controller more per
		// byte than it consumes in service share.
		e.loadW = m.demand.ResLoad[e.r] / totalBytes
	}
	if m.attrOn {
		m.attrResolve(ft, jitter)
	}
	m.running[core] = ft

	// Register the task's load, then re-rate every task sharing a resource
	// whose population changed (including the new task itself); touch
	// defers the refresh to the end of the instant.
	affected := m.collectAffected(ft)
	m.nRunning++
	for i := range ft.res {
		e := &ft.res[i]
		if m.obsOn {
			m.obsAccumLoad(e.r)
		}
		m.setLoad(e.r, m.ls[e.r].load+e.loadW)
		m.ls[e.r].svc += e.weight
		ft.pos[e.r] = len(m.byResource[e.r])
		m.byResource[e.r] = append(m.byResource[e.r], ft)
	}
	for _, t := range affected {
		m.touch(t)
	}
	m.touch(ft)
}

// collectAffected returns the distinct running tasks (other than ft) that
// share at least one resource with ft, in first-occurrence order over ft's
// resource lists: that order is the touch order. Distinctness uses epoch
// marking over a reused scratch slice instead of a per-call map; the
// returned slice is only valid until the next collectAffected call.
//
// ft is not counted in nRunning here, so once the sweep holds nRunning
// tasks it holds every other running task, and the lists left to walk can
// add none: the sweep stops. When every running task gathers over every
// controller (CG, SP), the first list already holds them all.
func (m *Machine) collectAffected(ft *fluidTask) []*fluidTask {
	m.epoch++
	ft.mark = m.epoch
	out := m.affected[:0]
	if m.nRunning > 0 {
	sweep:
		for i := range ft.res {
			for _, t := range m.byResource[ft.res[i].r] {
				if t.mark != m.epoch {
					t.mark = m.epoch
					out = append(out, t)
					if len(out) == m.nRunning {
						break sweep
					}
				}
			}
		}
	}
	m.affected = out
	return out
}

// remainingTime computes T for a task under current resource loads:
// compute runs first at the core's speed; the memory components then drain
// in parallel (a task can pull from several controllers at once), so memory
// time is the maximum over per-resource times — additionally floored by the
// core's aggregate "port" rate (a single core cannot move controller bytes
// faster than CoreStreamBW no matter how many controllers serve it).
//
// On resource r the task receives the service-weighted fair share of the
// bandwidth the resource delivers under its current queue-pressure load:
// rate = EffectiveBandwidth(r, load_r) * w/svc_r, so its service time there
// is bytes * svc_r / (w * EffBW(load_r)).
func (m *Machine) remainingTime(ft *fluidTask) float64 {
	m.rateEvals++
	t := ft.compute / m.coreSpeed[ft.core]
	var memMax, ctrlBytes float64
	for i := range ft.res {
		e := &ft.res[i]
		b := e.bytes
		if b <= 0 {
			continue
		}
		if e.r < m.nCtrl {
			ctrlBytes += b
		}
		w := e.weight
		ls := &m.ls[e.r]
		svc := ls.svc
		if svc < w {
			svc = w // numerical guard: a task is always part of the share sum
		}
		eff := ls.eff
		if ls.load < e.loadW {
			// Numerical guard: a task is always part of the load too.
			eff = m.res.Eff(m.peakBW(e.r), e.loadW)
		}
		rate := eff * w / svc
		if mt := b / rate; mt > memMax {
			memMax = mt
		}
	}
	if port := ctrlBytes / m.res.CoreStreamBW; port > memMax {
		memMax = port
	}
	return t + memMax
}

// peakBW returns resource r's bandwidth before contention.
func (m *Machine) peakBW(r int) float64 {
	if r < m.nCtrl {
		return m.res.ControllerBW
	}
	return m.res.LinkBW
}

// setLoad sets resource r's queue-pressure load and recomputes the
// bandwidth it delivers under it. Every write of a load goes through here,
// which keeps ls[r].eff equal to res.Eff(peakBW(r), ls[r].load) bit for bit.
func (m *Machine) setLoad(r int, load float64) {
	m.ls[r].load = load
	m.ls[r].eff = m.res.Eff(m.peakBW(r), load)
}

// advance drains a task's remaining components proportionally up to now.
func (m *Machine) advance(ft *fluidTask, now sim.Time) {
	dt := float64(now - ft.lastUpdate)
	ft.lastUpdate = now
	if dt <= 0 || ft.remaining <= 0 {
		return
	}
	frac := dt / ft.remaining
	if frac >= 1 {
		frac = 1
	}
	keep := 1 - frac
	ft.compute *= keep
	for i := range ft.res {
		ft.res[i].bytes *= keep
	}
}

// refresh advances a task to now under the rates that were in effect,
// recomputes its remaining time under the new rates, and reschedules its
// completion event in place (a fresh event only for a task that has none
// yet — its first refresh after Exec).
func (m *Machine) refresh(ft *fluidTask) {
	now := m.eng.Now()
	m.advance(ft, now)
	ft.remaining = m.remainingTime(ft)
	ft.handle = m.eng.RescheduleOrAt(ft.handle, now+sim.Time(ft.remaining), ft.completeFn)
}

// touch re-rates a task whose resource loads just changed. It defers the
// refresh to the end of the current virtual instant (FlushRefresh), so a
// task touched by several same-instant boundaries is advanced and re-rated
// once: at dt=0 advance is a no-op and only the rates in force when time
// next moves matter.
//
// Two cases refresh at once, because their completion fires within the
// current instant — before the flush would re-rate them:
//   - a task whose completion event is due exactly now (a lockstep
//     co-completion cascade): it must be re-queued at once with a fresh
//     sequence number, behind the events already due this instant, and
//     that position fixes the same-instant event order;
//   - a brand-new zero-work task (no compute, no traffic), which must
//     complete at now.
func (m *Machine) touch(ft *fluidTask) {
	if at, ok := ft.handle.When(); ok {
		if at > m.eng.Now() {
			m.dirtyPush(ft)
			return
		}
	} else if ft.compute > 0 || len(ft.res) > 0 {
		m.dirtyPush(ft)
		return
	}
	m.refresh(ft)
}

// dirtyPush appends ft to the dirty list tail, moving it there if already
// listed, and arms the engine's instant-end flush.
func (m *Machine) dirtyPush(ft *fluidTask) {
	if ft.onDirty {
		if m.dirtyTail == ft {
			return
		}
		m.dirtyUnlink(ft)
	}
	ft.onDirty = true
	ft.dirtyPrev = m.dirtyTail
	if m.dirtyTail != nil {
		m.dirtyTail.dirtyNext = ft
	} else {
		m.dirtyHead = ft
	}
	m.dirtyTail = ft
	m.eng.ArmFlush()
}

func (m *Machine) dirtyUnlink(ft *fluidTask) {
	if ft.dirtyPrev != nil {
		ft.dirtyPrev.dirtyNext = ft.dirtyNext
	} else {
		m.dirtyHead = ft.dirtyNext
	}
	if ft.dirtyNext != nil {
		ft.dirtyNext.dirtyPrev = ft.dirtyPrev
	} else {
		m.dirtyTail = ft.dirtyPrev
	}
	ft.dirtyPrev, ft.dirtyNext = nil, nil
	ft.onDirty = false
}

// FlushRefresh re-rates every task on the dirty list, in last-touch order,
// and clears the list. The engine invokes it automatically at the end of
// each virtual instant; it is exported for direct Machine users that
// inspect completion events between Exec and Run.
func (m *Machine) FlushRefresh() {
	for ft := m.dirtyHead; ft != nil; {
		next := ft.dirtyNext
		ft.dirtyPrev, ft.dirtyNext, ft.onDirty = nil, nil, false
		m.refresh(ft)
		ft = next
	}
	m.dirtyHead, m.dirtyTail = nil, nil
}

func (m *Machine) complete(ft *fluidTask) {
	now := m.eng.Now()
	m.busySeconds[ft.core] += float64(now - ft.started)
	if memSec := float64(now-ft.started) - ft.compute0/m.coreSpeed[ft.core]; memSec > 0 {
		m.counters.MemorySeconds += memSec
	}
	if m.attrOn {
		m.attrComplete(ft, float64(now-ft.started))
	}
	m.running[ft.core] = nil
	m.nRunning--
	for i := range ft.res {
		e := &ft.res[i]
		r := e.r
		if m.obsOn {
			m.obsAccumLoad(r)
		}
		ls := &m.ls[r]
		load := ls.load - e.loadW
		if load < m.externalLoad[r] {
			load = m.externalLoad[r] // float drift guard
		}
		m.setLoad(r, load)
		ls.svc -= e.weight
		if ls.svc < 0 {
			ls.svc = 0
		}
		m.removeFromResource(r, ft)
	}
	for _, t := range m.collectAffected(ft) {
		m.touch(t)
	}
	// Recycle before the callback so the callback can Exec on the same
	// core immediately and reuse the slot.
	done := ft.done
	m.recycleFT(ft)
	if done != nil {
		done()
	}
}

// removeFromResource unlinks ft from byResource[r] in O(1) using the
// stored position, swap-moving the tail task into the hole. The resulting
// list order is the collectAffected traversal order, hence the touch and
// flush order of the next boundary on r, so it must stay swap-remove
// order: any other order reshuffles same-instant completions.
func (m *Machine) removeFromResource(r int, ft *fluidTask) {
	s := m.byResource[r]
	i := ft.pos[r]
	if i >= len(s) || s[i] != ft {
		panic("machine: task position out of sync with resource list")
	}
	last := len(s) - 1
	moved := s[last]
	s[i] = moved
	moved.pos[r] = i
	s[last] = nil
	m.byResource[r] = s[:last]
}
