package taskrt

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/topology"
)

// planScheduler is a test scheduler that returns a fixed plan builder and
// records observations. The runtime reuses the stats it hands to Observe,
// so the record keeps copies.
type planScheduler struct {
	name     string
	plan     func(rt *Runtime, spec *LoopSpec) *Plan
	observed []LoopStats
}

func (s *planScheduler) Name() string                                      { return s.name }
func (s *planScheduler) Plan(rt *Runtime, l *LoopSpec, _ *Occupancy) *Plan { return s.plan(rt, l) }
func (s *planScheduler) Observe(_ *Runtime, _ *LoopSpec, st *LoopStats) {
	s.observed = append(s.observed, *st)
}

// allCores returns 0..n-1.
func allCores(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// appendCores appends 0..n-1 to dst.
func appendCores(dst []int, n int) []int {
	for c := 0; c < n; c++ {
		dst = append(dst, c)
	}
	return dst
}

// spreadPlan distributes tasks round-robin over all cores, flat stealing.
func spreadPlan(rt *Runtime, spec *LoopSpec) *Plan {
	n := rt.Topology().NumCores()
	p := rt.NewPlan()
	p.Active = appendCores(p.Active, n)
	p.Mode = StealFlat
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: t % n})
	}
	return p
}

// masterQueuePlan puts every task on core 0 (the LLVM taskloop shape).
func masterQueuePlan(rt *Runtime, spec *LoopSpec) *Plan {
	p := rt.NewPlan()
	p.Active = appendCores(p.Active, rt.Topology().NumCores())
	p.Mode = StealFlat
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
	}
	return p
}

func newTestRuntime(t *testing.T, sch Scheduler) *Runtime {
	t.Helper()
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  7,
		Noise: machine.NoiseConfig{Enabled: false},
		Alpha: -1,
	})
	return New(m, sch, DefaultCosts())
}

func computeLoop(id, iters, tasks int, secPerIter float64) *LoopSpec {
	return &LoopSpec{
		ID: id, Name: "compute", Iters: iters, Tasks: tasks,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return secPerIter * float64(hi-lo), nil
		},
	}
}

func TestLoopSpecValidate(t *testing.T) {
	good := computeLoop(1, 10, 5, 1e-6)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []*LoopSpec{
		nil,
		{ID: 1, Iters: 0, Tasks: 1, Demand: good.Demand},
		{ID: 1, Iters: 10, Tasks: 0, Demand: good.Demand},
		{ID: 1, Iters: 2, Tasks: 3, Demand: good.Demand},
		{ID: 1, Iters: 10, Tasks: 5},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestChunkBoundsTileExactly(t *testing.T) {
	f := func(itersRaw, tasksRaw uint16) bool {
		iters := 1 + int(itersRaw%5000)
		tasks := 1 + int(tasksRaw)%iters
		spec := computeLoop(0, iters, tasks, 0)
		next := 0
		for ti := 0; ti < tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			if lo != next || hi <= lo {
				return false
			}
			next = hi
		}
		return next == iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidate(t *testing.T) {
	spec := computeLoop(1, 8, 4, 1e-6)
	base := func() *Plan {
		return &Plan{
			Active: []int{0, 1},
			Place: []TaskPlacement{
				{Lo: 0, Hi: 2, Core: 0}, {Lo: 2, Hi: 4, Core: 1},
				{Lo: 4, Hi: 6, Core: 0}, {Lo: 6, Hi: 8, Core: 1},
			},
		}
	}
	if err := base().Validate(spec, 16, nil); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Plan)
	}{
		{"no active", func(p *Plan) { p.Active = nil }},
		{"core out of range", func(p *Plan) { p.Active = []int{99} }},
		{"duplicate core", func(p *Plan) { p.Active = []int{0, 0} }},
		{"no tasks", func(p *Plan) { p.Place = nil }},
		{"gap in tiling", func(p *Plan) { p.Place[1].Lo = 3 }},
		{"short coverage", func(p *Plan) { p.Place = p.Place[:3] }},
		{"inactive core", func(p *Plan) { p.Place[0].Core = 5 }},
		{"unknown steal mode", func(p *Plan) { p.Mode = StealMode(7) }},
		{"negative steal chunk", func(p *Plan) { p.StealChunk = -1 }},
		{"negative select overhead", func(p *Plan) { p.SelectOverheadSec = -1e-6 }},
		{"NaN select overhead", func(p *Plan) { p.SelectOverheadSec = math.NaN() }},
		{"infinite select overhead", func(p *Plan) { p.SelectOverheadSec = math.Inf(1) }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := base()
			m.mut(p)
			if err := p.Validate(spec, 16, nil); err == nil {
				t.Error("invalid plan accepted")
			}
		})
	}
}

func TestAllIterationsExecuteExactlyOnce(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	iters := 64
	covered := make([]int, iters)
	spec := &LoopSpec{
		ID: 1, Name: "cover", Iters: iters, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			return 1e-6, nil
		},
	}
	var doneStats *LoopStats
	rt.SubmitLoop(spec, func(st *LoopStats) { doneStats = st })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("iteration %d executed %d times", i, c)
		}
	}
	if doneStats == nil {
		t.Fatal("done callback never fired")
	}
	total := 0
	for _, n := range doneStats.NodeTasks {
		total += n
	}
	if total != 16 {
		t.Fatalf("NodeTasks total = %d, want 16", total)
	}
	if doneStats.Elapsed <= 0 || doneStats.OverheadSec <= 0 {
		t.Fatalf("stats not populated: %+v", doneStats)
	}
}

func TestParallelSpeedup(t *testing.T) {
	run := func(tasks int, plan func(*Runtime, *LoopSpec) *Plan) float64 {
		sch := &planScheduler{name: "x", plan: plan}
		rt := newTestRuntime(t, sch)
		spec := computeLoop(1, tasks, tasks, 1e-3)
		var elapsed float64
		rt.SubmitLoop(spec, func(st *LoopStats) { elapsed = float64(st.Elapsed) })
		if err := rt.Machine().Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	serialPlan := func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{Active: []int{0}, Mode: StealOff}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
		}
		return p
	}
	serial := run(16, serialPlan)
	parallel := run(16, spreadPlan)
	// 16 compute tasks on 16 cores: near-16x.
	if parallel > serial/8 {
		t.Fatalf("parallel %g vs serial %g: speedup < 8x", parallel, serial)
	}
}

func TestWorkStealingDrainsMasterQueue(t *testing.T) {
	sch := &planScheduler{name: "master", plan: masterQueuePlan}
	rt := newTestRuntime(t, sch)
	spec := computeLoop(1, 32, 32, 1e-3)
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if st.StealAttempts == 0 {
		t.Fatal("no steals happened from a single-queue plan")
	}
	// Work must have spread across nodes.
	busyNodes := 0
	for _, n := range st.NodeTasks {
		if n > 0 {
			busyNodes++
		}
	}
	if busyNodes < 2 {
		t.Fatalf("stealing failed to spread work: NodeTasks=%v", st.NodeTasks)
	}
	// And it should be much faster than serial execution (32 ms serial).
	if float64(st.Elapsed) > 0.016 {
		t.Fatalf("stolen execution took %v, want < half of serial 32ms", st.Elapsed)
	}
}

func TestStealOffKeepsTasksHome(t *testing.T) {
	sch := &planScheduler{name: "nosteal", plan: func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{Active: allCores(rt.Topology().NumCores()), Mode: StealOff}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0})
		}
		return p
	}}
	rt := newTestRuntime(t, sch)
	spec := computeLoop(1, 8, 8, 1e-4)
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if st.NodeTasks[0] != 8 {
		t.Fatalf("tasks left core 0's node with stealing off: %v", st.NodeTasks)
	}
	if st.StealAttempts != 0 {
		t.Fatalf("StealAttempts = %d with stealing off", st.StealAttempts)
	}
}

func TestStrictTasksNeverCrossNodes(t *testing.T) {
	// All tasks strict on node 0's primary; hierarchical with inter-node
	// stealing permitted: only node 0 may execute them.
	sch := &planScheduler{name: "strict", plan: func(rt *Runtime, spec *LoopSpec) *Plan {
		p := &Plan{
			Active:         allCores(rt.Topology().NumCores()),
			Mode:           StealHierarchical,
			InterNodeSteal: true,
		}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0, Strict: true})
		}
		return p
	}}
	rt := newTestRuntime(t, sch)
	spec := computeLoop(1, 16, 16, 1e-4)
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if st.NodeTasks[0] != 16 {
		t.Fatalf("strict tasks executed off node 0: %v", st.NodeTasks)
	}
	if st.StealsRemote != 0 {
		t.Fatalf("StealsRemote = %d for all-strict tasks", st.StealsRemote)
	}
	if st.StealsLocal == 0 {
		t.Fatal("expected intra-node steals to spread strict tasks within node 0")
	}
}

func TestGreenTasksCrossNodesOnlyWithInterNodeSteal(t *testing.T) {
	run := func(interNode bool) *LoopStats {
		sch := &planScheduler{name: "green", plan: func(rt *Runtime, spec *LoopSpec) *Plan {
			p := &Plan{
				Active:         allCores(rt.Topology().NumCores()),
				Mode:           StealHierarchical,
				InterNodeSteal: interNode,
			}
			for ti := 0; ti < spec.Tasks; ti++ {
				lo, hi := spec.ChunkBounds(ti)
				p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: 0, Strict: false})
			}
			return p
		}}
		rt := newTestRuntime(t, sch)
		spec := computeLoop(1, 32, 32, 1e-4)
		var st *LoopStats
		rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
		if err := rt.Machine().Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	with := run(true)
	without := run(false)
	if with.StealsRemote == 0 {
		t.Fatal("inter-node stealing enabled but no remote steals for overloaded node")
	}
	if without.StealsRemote != 0 {
		t.Fatalf("strict policy produced %d remote steals", without.StealsRemote)
	}
	for n := 1; n < len(without.NodeTasks); n++ {
		if without.NodeTasks[n] != 0 {
			t.Fatalf("strict policy leaked tasks to node %d: %v", n, without.NodeTasks)
		}
	}
	if with.Elapsed >= without.Elapsed {
		t.Fatalf("inter-node stealing (%v) not faster than strict (%v) on imbalanced load",
			with.Elapsed, without.Elapsed)
	}
}

func TestSubmitWhileRunningPanics(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	spec := computeLoop(1, 4, 4, 1e-6)
	rt.SubmitLoop(spec, nil)
	defer func() {
		if recover() == nil {
			t.Error("nested SubmitLoop did not panic")
		}
	}()
	rt.SubmitLoop(spec, nil)
}

func TestObserveCalledPerExecution(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	prog := &Program{
		Name:     "p",
		Loops:    []*LoopSpec{computeLoop(1, 8, 8, 1e-6), computeLoop(2, 8, 8, 1e-6)},
		Sequence: []int{0, 1, 0, 1, 0},
	}
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.observed) != 5 {
		t.Fatalf("Observe called %d times, want 5", len(sch.observed))
	}
	if res.LoopExecutions != 5 {
		t.Fatalf("LoopExecutions = %d, want 5", res.LoopExecutions)
	}
	if res.TasksExecuted != 40 {
		t.Fatalf("TasksExecuted = %d, want 40", res.TasksExecuted)
	}
	if res.Elapsed <= 0 || res.OverheadSec <= 0 {
		t.Fatalf("result not populated: %+v", res)
	}
}

func TestWeightedAvgThreads(t *testing.T) {
	// One loop on 4 cores; another on all 16. The weighted average must be
	// between the two and weighted by elapsed time.
	sch := &planScheduler{name: "mix", plan: func(rt *Runtime, spec *LoopSpec) *Plan {
		n := 16
		if spec.ID == 1 {
			n = 4
		}
		p := &Plan{Active: allCores(n), Mode: StealFlat}
		for ti := 0; ti < spec.Tasks; ti++ {
			lo, hi := spec.ChunkBounds(ti)
			p.Place = append(p.Place, TaskPlacement{Lo: lo, Hi: hi, Core: ti % n})
		}
		return p
	}}
	rt := newTestRuntime(t, sch)
	prog := &Program{
		Name:     "p",
		Loops:    []*LoopSpec{computeLoop(1, 16, 16, 1e-4), computeLoop(2, 16, 16, 1e-4)},
		Sequence: []int{0, 1},
	}
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedAvgThreads <= 4 || res.WeightedAvgThreads >= 16 {
		t.Fatalf("WeightedAvgThreads = %g, want in (4, 16)", res.WeightedAvgThreads)
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{Name: "p", Loops: []*LoopSpec{computeLoop(1, 4, 4, 0)}, Sequence: []int{0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := []*Program{
		nil,
		{Name: "empty"},
		{Name: "dupid", Loops: []*LoopSpec{computeLoop(1, 4, 4, 0), computeLoop(1, 4, 4, 0)}, Sequence: []int{0}},
		{Name: "range", Loops: []*LoopSpec{computeLoop(1, 4, 4, 0)}, Sequence: []int{1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

func TestRunProgramDeterministic(t *testing.T) {
	run := func() float64 {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.SmallTest()),
			Seed:  11,
			Noise: machine.DefaultNoise(),
			Alpha: -1,
		})
		rt := New(m, &planScheduler{name: "master", plan: masterQueuePlan}, DefaultCosts())
		prog := &Program{
			Name:     "p",
			Loops:    []*LoopSpec{computeLoop(1, 64, 32, 1e-5)},
			Sequence: []int{0, 0, 0},
		}
		res, err := rt.RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	if run() != run() {
		t.Fatal("same-seed program runs diverged")
	}
}

func TestMemoryTasksChargeNodeStats(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	r := rt.Machine().Memory().NewRegion("data", 64*memsys.BlockSize)
	r.PlaceBlocked([]int{0, 1, 2, 3})
	spec := &LoopSpec{
		ID: 1, Name: "mem", Iters: 16, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			off := int64(lo) * 4 * memsys.BlockSize
			return 0, []memsys.Access{{Region: r, Offset: off, Bytes: 2 * memsys.BlockSize, Pattern: memsys.Stream}}
		},
	}
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	var sec float64
	for n := range st.NodeTaskSeconds {
		sec += st.NodeTaskSeconds[n]
	}
	if sec <= 0 {
		t.Fatal("no node task seconds recorded for memory tasks")
	}
	if st.MeanNodeTaskSec(0) <= 0 {
		t.Fatal("MeanNodeTaskSec(0) not positive")
	}
}

func TestMeanNodeTaskSecInfForIdleNode(t *testing.T) {
	st := &LoopStats{NodeTaskSeconds: []float64{0, 1}, NodeTasks: []int{0, 2}}
	if st.MeanNodeTaskSec(0) < 1e299 {
		t.Fatal("idle node should rank as +inf")
	}
	if st.MeanNodeTaskSec(1) != 0.5 {
		t.Fatal("mean wrong")
	}
}

func TestStealModeString(t *testing.T) {
	if StealHierarchical.String() != "hierarchical" || StealFlat.String() != "flat" || StealOff.String() != "off" {
		t.Fatal("steal mode names wrong")
	}
	if StealMode(9).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}

func TestLoopStatsUtilization(t *testing.T) {
	st := &LoopStats{
		Elapsed:         2,
		ActiveThreads:   4,
		NodeTaskSeconds: []float64{3, 3, 1, 1}, // 8 busy core-seconds of 8
	}
	if got := st.Utilization(); got != 1 {
		t.Fatalf("Utilization = %g, want 1 (clamped)", got)
	}
	st.NodeTaskSeconds = []float64{2, 2, 0, 0}
	if got := st.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %g, want 0.5", got)
	}
	empty := &LoopStats{}
	if empty.Utilization() != 0 {
		t.Fatal("empty stats utilization not 0")
	}
}

func TestUtilizationMeasuredOnBalancedLoop(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	// 64 equal tasks on 16 cores: 4 clean waves, utilization near 1.
	spec := computeLoop(1, 64, 64, 1e-4)
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if u := st.Utilization(); u < 0.85 {
		t.Fatalf("balanced loop utilization = %g, want > 0.85", u)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	if rt.Scheduler() != sch {
		t.Fatal("Scheduler accessor wrong")
	}
	if rt.QueuedTasks(0) != 0 {
		t.Fatal("fresh runtime has queued tasks")
	}
}

func TestLoopStatsIntensityPopulated(t *testing.T) {
	sch := &planScheduler{name: "spread", plan: spreadPlan}
	rt := newTestRuntime(t, sch)
	r := rt.Machine().Memory().NewRegion("data", 32*memsys.BlockSize)
	r.PlaceBlocked([]int{0, 1, 2, 3})
	spec := &LoopSpec{
		ID: 1, Name: "mix", Iters: 16, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 10e-6 * float64(hi-lo), []memsys.Access{{
				Region: r, Offset: int64(lo) * 2 * memsys.BlockSize,
				Bytes: memsys.BlockSize, Pattern: memsys.Stream}}
		},
	}
	var st *LoopStats
	rt.SubmitLoop(spec, func(s *LoopStats) { st = s })
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if mi := st.MemoryIntensity(); mi <= 0 || mi >= 1 {
		t.Fatalf("MemoryIntensity = %g", mi)
	}
}
