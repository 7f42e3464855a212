package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// The traced run. Each unit is driven by hand through the layers' public
// functions in the order harness.RunOne / RunMultiOne call them
// (machine.New, Benchmark.Build or workloads.CoRunWorkload, taskrt.New,
// RunProgram or RunWorkload), with every call timed from outside: a
// timing Scheduler decorator around Plan and Observe, and a timing wrapper
// around every LoopSpec.Demand. The export calls of a pass are timed the
// same way. Simulated outputs must come out identical to the untraced
// units'; the gate checks that.

// layerStats sums the host time and work counts of traced units.
type layerStats struct {
	units                      int
	machineNew, build, run     time.Duration
	ilanPlan, ilanObserve      time.Duration
	schedPlan, schedObserve    time.Duration
	ilanPlans, ilanObserves    int64
	schedPlans                 int64
	demand                     time.Duration
	demandCalls                int64
	tasks, events, rescheduled uint64
	loops, steals, attempts    int
	realizedBytes              float64
	l3Hits, l3Misses           uint64
}

func (a *layerStats) add(b *layerStats) {
	a.units += b.units
	a.machineNew += b.machineNew
	a.build += b.build
	a.run += b.run
	a.ilanPlan += b.ilanPlan
	a.ilanObserve += b.ilanObserve
	a.schedPlan += b.schedPlan
	a.schedObserve += b.schedObserve
	a.ilanPlans += b.ilanPlans
	a.ilanObserves += b.ilanObserves
	a.schedPlans += b.schedPlans
	a.demand += b.demand
	a.demandCalls += b.demandCalls
	a.tasks += b.tasks
	a.events += b.events
	a.rescheduled += b.rescheduled
	a.loops += b.loops
	a.steals += b.steals
	a.attempts += b.attempts
	a.realizedBytes += b.realizedBytes
	a.l3Hits += b.l3Hits
	a.l3Misses += b.l3Misses
}

// span is one timed call, kept in memory and written at exit as a Chrome
// trace-event slice. Spans of one unit share its unit index; nesting
// follows from time containment on the worker's lane.
type span struct {
	name       string
	lane       int
	pass, unit int
	start, dur time.Duration // since the tracer's epoch
}

// maxSpans bounds the spans kept in memory, about a megabyte: the heap the
// spans hold changes how often the garbage collector runs, and with it
// the pass times being compared. Later spans are counted only.
const maxSpans = 20_000

// tracer collects spans and layer statistics for the traced passes.
type tracer struct {
	epoch time.Time
	lanes chan int // free worker lanes; the export step uses lane `workers`

	mu      sync.Mutex
	pass    int
	sim     layerStats // hand-driven units
	simSets int        // complete unit sets simulated by hand
	encode  time.Duration
	decode  time.Duration
	outB    int64
	passes  int // traced passes exported
	spans   []span
	dropped int
	full    atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), lanes: make(chan int, workers)}
	for i := 0; i < workers; i++ {
		t.lanes <- i
	}
	return t
}

// keepLocked stores spans up to maxSpans. Caller holds t.mu.
func (t *tracer) keepLocked(ss []span) {
	room := maxSpans - len(t.spans)
	if room < len(ss) {
		t.dropped += len(ss) - room
		ss = ss[:room]
		t.full.Store(true)
	}
	t.spans = append(t.spans, ss...)
}

// span times fn as an export-step span on the main lane. A nil tracer
// just calls fn, so untraced passes share the export code.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch name {
	case "results.encode":
		t.encode += d
	case "results.decode":
		t.decode += d
	}
	t.keepLocked([]span{{name: name, lane: workers, pass: t.pass, unit: -1, start: start.Sub(t.epoch), dur: d}})
}

// unitRecorder is the per-unit state of a traced unit: its lane, its
// spans and its layer statistics, merged into the tracer when it ends.
type unitRecorder struct {
	t     *tracer
	lane  int
	pass  int
	unit  int
	st    layerStats
	spans []span
	// dropped counts spans not recorded because the tracer is full.
	dropped int
}

func (r *unitRecorder) mark(name string, start time.Time) time.Duration {
	d := time.Since(start)
	if r.t.full.Load() {
		r.dropped++
		return d
	}
	r.spans = append(r.spans, span{name: name, lane: r.lane, pass: r.pass, unit: r.unit,
		start: start.Sub(r.t.epoch), dur: d})
	return d
}

func (t *tracer) begin(unit int) *unitRecorder {
	t.mu.Lock()
	pass := t.pass
	t.mu.Unlock()
	return &unitRecorder{t: t, lane: <-t.lanes, pass: pass, unit: unit, st: layerStats{units: 1}}
}

func (r *unitRecorder) end(sim bool) {
	r.t.lanes <- r.lane
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	if sim {
		r.t.sim.add(&r.st)
	}
	r.t.dropped += r.dropped
	r.t.keepLocked(r.spans)
}

// timedScheduler times every Plan and Observe call of the scheduler it
// wraps, attributing them to ILAN or to the other schedulers.
type timedScheduler struct {
	inner taskrt.Scheduler
	ilan  bool
	rec   *unitRecorder
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, occ *taskrt.Occupancy) *taskrt.Plan {
	start := time.Now()
	p := s.inner.Plan(rt, spec, occ)
	d := s.rec.mark("Plan", start)
	if s.ilan {
		s.rec.st.ilanPlan += d
		s.rec.st.ilanPlans++
	} else {
		s.rec.st.schedPlan += d
		s.rec.st.schedPlans++
	}
	return p
}

func (s *timedScheduler) Observe(rt *taskrt.Runtime, spec *taskrt.LoopSpec, st *taskrt.LoopStats) {
	start := time.Now()
	s.inner.Observe(rt, spec, st)
	d := s.rec.mark("Observe", start)
	if s.ilan {
		s.rec.st.ilanObserve += d
		s.rec.st.ilanObserves++
	} else {
		s.rec.st.schedObserve += d
	}
}

func isILAN(k harness.Kind) bool {
	return k == harness.KindILAN || k == harness.KindILANNoMold || k == harness.KindILANCounters
}

// timeDemand wraps every loop's Demand with a call counter and timer;
// Demand runs millions of times per pass, so it is aggregated instead of
// recorded as spans.
func timeDemand(loops []*taskrt.LoopSpec, st *layerStats) {
	for _, l := range loops {
		inner := l.Demand
		l.Demand = func(lo, hi int) (float64, []memsys.Access) {
			start := time.Now()
			c, acc := inner(lo, hi)
			st.demand += time.Since(start)
			st.demandCalls++
			return c, acc
		}
	}
}

// simUnit drives unit i by hand through the layers, as harness.RunOne or
// RunMultiOne would on a cache miss.
func (t *tracer) simUnit(b *bench, i int) unitResult {
	u := b.units[i]
	cfg := b.cfg
	rec := t.begin(i)
	unitStart := time.Now()
	var r unitResult

	start := time.Now()
	m := newMachine(cfg, u.rep)
	rec.st.machineNew += rec.mark("machine.New", start)

	start = time.Now()
	var prog *taskrt.Program
	var wl *taskrt.Workload
	if u.multi() {
		wl = workloads.CoRunWorkload(m, u.benches, cfg.Class, cfg.Multi.ArrivalSpreadSec)
		rec.st.build += rec.mark("workloads.CoRunWorkload", start)
		for _, p := range wl.Programs {
			timeDemand(p.Loops, &rec.st)
		}
	} else {
		prog = u.bench.Build(m, cfg.Class)
		rec.st.build += rec.mark("Benchmark.Build", start)
		timeDemand(prog.Loops, &rec.st)
	}

	rt := taskrt.New(m, &timedScheduler{inner: harness.NewScheduler(u.kind), ilan: isILAN(u.kind), rec: rec},
		taskrt.DefaultCosts())
	var run *obs.Run
	if cfg.Metrics || cfg.TraceDecisions {
		run = obs.NewRun(obs.Options{TraceDecisions: cfg.TraceDecisions, RingCap: cfg.DecisionCap})
		rt.SetObs(run)
	}
	var trace *taskrt.Trace
	if cfg.TraceTasks && u.rep == 0 {
		trace = rt.EnableTracing()
	}
	if cfg.Attr && !u.multi() {
		rt.EnableAttr()
	}

	start = time.Now()
	if u.multi() {
		var res *taskrt.WorkloadResult
		res, r.err = rt.RunWorkload(wl)
		rec.st.run += rec.mark("RunWorkload", start)
		if r.err == nil {
			r.multi = harness.MultiSample{ElapsedSec: float64(res.Elapsed), Trace: trace}
			for pi, pr := range res.Programs {
				r.multi.Programs = append(r.multi.Programs, harness.ProgramSample{
					Program: pr.Name, Bench: u.benches[pi].Name, ArrivalSec: pr.ArrivalSec,
					StartSec: pr.StartSec, MakespanSec: pr.MakespanSec, Tasks: pr.TasksExecuted,
				})
				rec.st.loops += pr.LoopExecutions
				rec.st.steals += pr.StealsLocal + pr.StealsRemote
				rec.st.attempts += pr.StealAttempts
			}
		}
	} else {
		var res *taskrt.RunResult
		res, r.err = rt.RunProgram(prog)
		rec.st.run += rec.mark("RunProgram", start)
		if r.err == nil {
			r.solo = harness.RunSample{
				ElapsedSec: float64(res.Elapsed), OverheadSec: res.OverheadSec,
				WeightedThreads: res.WeightedAvgThreads, StealsLocal: res.StealsLocal,
				StealsRemote: res.StealsRemote, Tasks: res.TasksExecuted,
				Trace: trace, Attr: rt.AttrSnapshot(),
			}
			rec.st.loops += res.LoopExecutions
			rec.st.steals += res.StealsLocal + res.StealsRemote
			rec.st.attempts += res.StealAttempts
		}
	}
	if r.err == nil && run != nil {
		rt.FinalizeObs()
		snap := run.Snapshot()
		for i := range snap.Decisions {
			snap.Decisions[i].Rep = u.rep
		}
		if u.multi() {
			r.multi.Obs = snap
		} else {
			r.solo.Obs = snap
		}
	}

	eng := m.Engine()
	ctr := m.Counters()
	rec.st.tasks += m.TasksStarted()
	rec.st.events += eng.Processed()
	rec.st.rescheduled += eng.Rescheduled()
	rec.st.realizedBytes += ctr.TotalRealizedBytes()
	rec.st.l3Hits += ctr.CacheHits
	rec.st.l3Misses += ctr.CacheMisses
	r.dur = rec.mark("unit "+u.name, unitStart)
	rec.end(true)
	return r
}

// replayUnit is the traced cache-replay unit: the harness call itself
// (a cache hit), recorded as one span.
func (t *tracer) replayUnit(b *bench, i int) unitResult {
	rec := t.begin(i)
	start := time.Now()
	r := b.runUnit(i)
	rec.mark("RunOne (cache hit) "+b.units[i].name, start)
	rec.end(false)
	return r
}

// tracedRunner returns the traced unit function for the workload.
func (t *tracer) tracedRunner(b *bench) func(int) unitResult {
	if b.w.replay {
		return func(i int) unitResult { return t.replayUnit(b, i) }
	}
	return func(i int) unitResult { return t.simUnit(b, i) }
}

// beginPass numbers the spans of the next traced pass.
func (t *tracer) beginPass() {
	t.mu.Lock()
	t.pass++
	t.mu.Unlock()
}

// endPass accounts a traced pass's exported bytes.
func (t *tracer) endPass(p *pass) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.passes++
	for _, b := range p.out {
		t.outB += int64(len(b))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto): one thread per worker lane plus one for the export step.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "ilanbench " + workload}}}
	for lane := 0; lane <= workers; lane++ {
		name := fmt.Sprintf("worker %d", lane)
		if lane == workers {
			name = "export"
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		args := map[string]any{"pass": s.pass}
		if s.unit >= 0 {
			args["unit"] = s.unit
		}
		events = append(events, event{Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Args: args})
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": events,
		"otherData": map[string]any{"droppedSpans": t.dropped}}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
