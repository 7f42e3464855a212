package ilan

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

func smallTopo() *topology.Machine { return topology.MustNew(topology.SmallTest()) }

// mkState builds a loopState with synthetic PTT measurements
// (threads -> mean seconds) at iteration k.
func mkState(topo *topology.Machine, k int, times map[int]float64) *loopState {
	ls := &loopState{
		k:         k,
		tried:     make(map[int]*cfgStats),
		nodeSec:   make([]float64, topo.NumNodes()),
		nodeTasks: make([]int, topo.NumNodes()),
	}
	for th, sec := range times {
		ls.tried[th] = &cfgStats{threads: th, totalSec: sec, count: 1}
	}
	return ls
}

func TestNextThreadsInitialSequence(t *testing.T) {
	topo := smallTopo() // 16 cores, node size 4 => g = 4
	s := MustNew(DefaultOptions())

	ls := mkState(topo, 1, nil)
	if th, fin := s.nextThreads(ls, topo); th != 16 || fin {
		t.Fatalf("k=1: got (%d,%v), want (16,false)", th, fin)
	}
	ls.k = 2
	if th, fin := s.nextThreads(ls, topo); th != 8 || fin {
		t.Fatalf("k=2: got (%d,%v), want (8,false)", th, fin)
	}
}

func TestNextThreadsMidpointWhenFullWidthFaster(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	// 16 threads faster than 8: general case, midpoint = 8 + (8/2/4)*4 = 12.
	ls := mkState(topo, 3, map[int]float64{16: 1.0, 8: 2.0})
	th, fin := s.nextThreads(ls, topo)
	if th != 12 || fin {
		t.Fatalf("got (%d,%v), want (12,false)", th, fin)
	}
	// Suppose 12 came back slower than 16: best=16, second=12, diff=4<=g.
	ls = mkState(topo, 4, map[int]float64{16: 1.0, 8: 2.0, 12: 1.5})
	th, fin = s.nextThreads(ls, topo)
	if th != 16 || !fin {
		t.Fatalf("got (%d,%v), want (16,true)", th, fin)
	}
}

func TestNextThreadsSmallestProbeWhenHalfWidthFaster(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	// 8 beat 16 at k=3: probe the smallest width g=4.
	ls := mkState(topo, 3, map[int]float64{16: 2.0, 8: 1.0})
	th, fin := s.nextThreads(ls, topo)
	if th != 4 || fin {
		t.Fatalf("k=3 special: got (%d,%v), want (4,false)", th, fin)
	}
	// k=4 with 8 still best, 4 second: diff 4 <= g: settle on 8.
	ls = mkState(topo, 4, map[int]float64{16: 2.0, 8: 1.0, 4: 1.2})
	th, fin = s.nextThreads(ls, topo)
	if th != 8 || !fin {
		t.Fatalf("k=4: got (%d,%v), want (8,true)", th, fin)
	}
	// If 4 won outright: best=4, second=8, diff<=g: settle on 4.
	ls = mkState(topo, 4, map[int]float64{16: 2.0, 8: 1.0, 4: 0.5})
	th, fin = s.nextThreads(ls, topo)
	if th != 4 || !fin {
		t.Fatalf("k=4 smallest wins: got (%d,%v), want (4,true)", th, fin)
	}
}

func TestNextThreadsMidpointAlreadyTriedFinishes(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	// best=12, second=4 -> midpoint = 4 + (8/2/4)*4 = 8, already tried.
	ls := mkState(topo, 5, map[int]float64{16: 3, 8: 2, 4: 2.5, 12: 1})
	th, fin := s.nextThreads(ls, topo)
	if th != 12 || !fin {
		t.Fatalf("got (%d,%v), want (12,true)", th, fin)
	}
}

func TestNextThreadsTieBreakPrefersWiderConfig(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	// Equal means: the wider config must rank best so the k=3 special case
	// does not fire on a tie.
	ls := mkState(topo, 3, map[int]float64{16: 1.0, 8: 1.0})
	th, fin := s.nextThreads(ls, topo)
	if th != 12 || fin {
		t.Fatalf("tie: got (%d,%v), want midpoint (12,false)", th, fin)
	}
}

func TestWidenPicksFastestNodeFirst(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	ls := mkState(topo, 1, nil)
	// Node 2 historically fastest.
	for n := 0; n < topo.NumNodes(); n++ {
		ls.nodeSec[n] = 1.0
		ls.nodeTasks[n] = 1
	}
	ls.nodeSec[2] = 0.1
	cfg := s.widen(ls, topo, 8, nil)
	if cfg.Nodes[0] != 2 {
		t.Fatalf("first node = %d, want fastest node 2", cfg.Nodes[0])
	}
	// Second node must share node 2's socket (node 3 in SmallTest).
	if cfg.Nodes[1] != 3 {
		t.Fatalf("second node = %d, want same-socket node 3", cfg.Nodes[1])
	}
	if len(cfg.Cores) != 8 {
		t.Fatalf("got %d cores, want 8", len(cfg.Cores))
	}
	for _, c := range cfg.Cores {
		if n := topo.NodeOfCore(c); n != 2 && n != 3 {
			t.Fatalf("core %d on node %d outside mask", c, n)
		}
	}
}

func TestWidenPartialNode(t *testing.T) {
	topo := smallTopo()
	s := MustNew(Options{Granularity: 2, StrictFraction: 0.75, Moldability: true})
	ls := mkState(topo, 1, nil)
	cfg := s.widen(ls, topo, 6, nil) // 1.5 nodes
	if len(cfg.Cores) != 6 {
		t.Fatalf("got %d cores, want 6", len(cfg.Cores))
	}
	if len(cfg.Nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(cfg.Nodes))
	}
}

func TestWidenClampsToMachine(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	ls := mkState(topo, 1, nil)
	cfg := s.widen(ls, topo, 999, nil)
	if cfg.Threads != 16 || len(cfg.Cores) != 16 {
		t.Fatalf("widen(999) = %d threads / %d cores, want 16/16", cfg.Threads, len(cfg.Cores))
	}
}

func TestConfigMaskAndString(t *testing.T) {
	cfg := Config{Threads: 8, Nodes: []int{1, 3}, StealFull: true}
	if cfg.Mask() != 0b1010 {
		t.Fatalf("Mask = %#b", cfg.Mask())
	}
	if cfg.String() == "" {
		t.Fatal("empty String")
	}
	if PhaseExplore.String() != "explore" || PhaseEvalSteal.String() != "eval-steal" ||
		PhaseSettled.String() != "settled" || Phase(9).String() == "" {
		t.Fatal("phase names wrong")
	}
}

func TestBuildPlanStrictPolicyAllStrict(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	ls := mkState(topo, 1, nil)
	cfg := s.widen(ls, topo, 8, nil)
	cfg.StealFull = false
	spec := &taskrt.LoopSpec{ID: 1, Name: "x", Iters: 64, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil }}
	plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg)
	if err := plan.Validate(spec, topo.NumCores(), nil); err != nil {
		t.Fatal(err)
	}
	for i, tp := range plan.Place {
		if !tp.Strict {
			t.Fatalf("task %d not strict under strict policy", i)
		}
	}
	if plan.InterNodeSteal {
		t.Fatal("InterNodeSteal true under strict policy")
	}
}

func TestBuildPlanFullPolicySplitsStrictAndGreen(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions()) // strict fraction 0.75
	ls := mkState(topo, 1, nil)
	cfg := s.widen(ls, topo, 16, nil)
	cfg.StealFull = true
	spec := &taskrt.LoopSpec{ID: 1, Name: "x", Iters: 64, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil }}
	plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg)
	if err := plan.Validate(spec, topo.NumCores(), nil); err != nil {
		t.Fatal(err)
	}
	strict, green := 0, 0
	for _, tp := range plan.Place {
		if tp.Strict {
			strict++
		} else {
			green++
		}
	}
	// 4 nodes x 4 tasks: 3 strict + 1 green each.
	if strict != 12 || green != 4 {
		t.Fatalf("strict=%d green=%d, want 12/4", strict, green)
	}
	if !plan.InterNodeSteal {
		t.Fatal("InterNodeSteal false under full policy")
	}
}

// TestBuildPlanTinyLoopKeepsStrictTasks is the regression test for the
// strict-count truncation bug: with fewer tasks than 2x the node count a
// node's span is one task, and int(0.75*1) = 0 used to mark that node's
// only task green — inverting the "leading fraction strict" rule. Every
// node with tasks must keep at least one strict task.
func TestBuildPlanTinyLoopKeepsStrictTasks(t *testing.T) {
	topo := smallTopo() // 4 nodes
	s := MustNew(DefaultOptions())
	for _, tasks := range []int{4, 6, 7} { // all < 2*nodes
		ls := mkState(topo, 1, nil)
		cfg := s.widen(ls, topo, 16, nil)
		cfg.StealFull = true
		spec := &taskrt.LoopSpec{ID: 1, Name: "tiny", Iters: 64, Tasks: tasks,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil }}
		plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg)
		if err := plan.Validate(spec, topo.NumCores(), nil); err != nil {
			t.Fatal(err)
		}
		strictPerCore := map[int]int{}
		for _, tp := range plan.Place {
			if tp.Strict {
				strictPerCore[tp.Core]++
			}
		}
		for _, tp := range plan.Place {
			if strictPerCore[tp.Core] == 0 {
				t.Fatalf("tasks=%d: node primary core %d has no strict task",
					tasks, tp.Core)
			}
		}
	}
}

func TestBuildPlanContiguousNodeMapping(t *testing.T) {
	topo := smallTopo()
	s := MustNew(DefaultOptions())
	ls := mkState(topo, 1, nil)
	cfg := s.widen(ls, topo, 16, nil)
	spec := &taskrt.LoopSpec{ID: 1, Name: "x", Iters: 160, Tasks: 16,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 0, nil }}
	plan := s.buildPlan(&taskrt.Plan{}, spec, topo, cfg)
	// Task cores must be non-decreasing node sequence with exactly 4 tasks
	// per node (16 tasks over 4 nodes).
	perCore := map[int]int{}
	lastNode := -1
	for _, tp := range plan.Place {
		node := topo.NodeOfCore(tp.Core)
		if node < lastNode {
			t.Fatalf("node mapping not contiguous: node %d after %d", node, lastNode)
		}
		lastNode = node
		perCore[tp.Core]++
	}
	if len(perCore) != 4 {
		t.Fatalf("tasks placed on %d distinct cores, want 4 node primaries", len(perCore))
	}
	for core, n := range perCore {
		if core != topo.PrimaryCore(topo.NodeOfCore(core)) {
			t.Fatalf("tasks placed on non-primary core %d", core)
		}
		if n != 4 {
			t.Fatalf("core %d got %d tasks, want 4", core, n)
		}
	}
}

// --- integration: ILAN running on the simulated machine ---

func newRuntime(t *testing.T, s taskrt.Scheduler, ctrlBW float64) *taskrt.Runtime {
	t.Helper()
	m := machine.New(machine.Config{
		Topo:         smallTopo(),
		Seed:         3,
		Noise:        machine.NoiseConfig{Enabled: false},
		ControllerBW: ctrlBW,
		Alpha:        0.05,
	})
	return taskrt.New(m, s, taskrt.DefaultCosts())
}

// gatherLoop is a bandwidth-saturated irregular loop: its throughput peaks
// well below all 16 cores, so moldability should shrink it.
func gatherLoop(rt *taskrt.Runtime) *taskrt.LoopSpec {
	mem := rt.Machine().Memory()
	region := mem.NewRegion("big", 512*memsys.BlockSize)
	nodes := make([]int, rt.Topology().NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	region.PlaceBlocked(nodes)
	return &taskrt.LoopSpec{
		ID: 1, Name: "gather", Iters: 64, Tasks: 32,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 1e-6 * float64(hi-lo), []memsys.Access{{
				Region: region, Offset: 0, Bytes: int64(hi-lo) * memsys.BlockSize / 4,
				Span: region.Size(), Pattern: memsys.Gather,
			}}
		},
	}
}

// computeLoop scales perfectly: moldability should keep every core.
func computeLoop() *taskrt.LoopSpec {
	return &taskrt.LoopSpec{
		ID: 2, Name: "compute", Iters: 64, Tasks: 32,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			return 50e-6 * float64(hi-lo), nil
		},
	}
}

func repeat(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestMoldabilityShrinksBandwidthBoundLoop(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 20e9)
	loop := gatherLoop(rt)
	prog := &taskrt.Program{Name: "g", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(30, 0)}
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg, phase, ok := s.ChosenConfig(loop.ID)
	if !ok || phase != PhaseSettled {
		t.Fatalf("loop not settled: ok=%v phase=%v", ok, phase)
	}
	if cfg.Threads >= rt.Topology().NumCores() {
		t.Fatalf("moldability kept all %d threads for a saturated loop", cfg.Threads)
	}
	if res.WeightedAvgThreads >= float64(rt.Topology().NumCores()) {
		t.Fatalf("WeightedAvgThreads = %g, want < 16", res.WeightedAvgThreads)
	}
}

func TestMoldabilityKeepsComputeBoundLoopWide(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 45e9)
	loop := computeLoop()
	prog := &taskrt.Program{Name: "c", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(30, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	cfg, phase, ok := s.ChosenConfig(loop.ID)
	if !ok || phase != PhaseSettled {
		t.Fatalf("loop not settled: phase=%v", phase)
	}
	if cfg.Threads != rt.Topology().NumCores() {
		t.Fatalf("compute-bound loop molded to %d threads, want all %d",
			cfg.Threads, rt.Topology().NumCores())
	}
}

func TestNoMoldAlwaysFullWidth(t *testing.T) {
	opts := DefaultOptions()
	opts.Moldability = false
	s := MustNew(opts)
	rt := newRuntime(t, s, 20e9)
	loop := gatherLoop(rt)
	prog := &taskrt.Program{Name: "g", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(10, 0)}
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedAvgThreads != float64(rt.Topology().NumCores()) {
		t.Fatalf("no-mold WeightedAvgThreads = %g, want 16", res.WeightedAvgThreads)
	}
	if s.Name() != "ilan-nomold" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestSettledConfigFasterThanInitial(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 20e9)
	loop := gatherLoop(rt)
	var times []float64
	var submit func(i int)
	submit = func(i int) {
		if i == 30 {
			return
		}
		rt.SubmitLoop(loop, func(st *taskrt.LoopStats) {
			times = append(times, float64(st.Elapsed))
			submit(i + 1)
		})
	}
	submit(0)
	if err := rt.Machine().Engine().Run(); err != nil {
		t.Fatal(err)
	}
	last := times[len(times)-1]
	if last >= times[0] {
		t.Fatalf("settled execution (%g) not faster than initial full-width (%g)", last, times[0])
	}
}

func TestStealPolicyEvaluationHappens(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 45e9)
	loop := computeLoop()
	prog := &taskrt.Program{Name: "c", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(20, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	tried := s.TriedConfigs(loop.ID)
	if len(tried) == 0 {
		t.Fatal("PTT empty after 20 executions")
	}
	cfg, _, _ := s.ChosenConfig(loop.ID)
	// Policy must have been decided one way or the other without error;
	// the config must use every core for a compute loop.
	if cfg.Threads != 16 {
		t.Fatalf("threads = %d", cfg.Threads)
	}
}

func TestImbalancedLoopPrefersFullStealing(t *testing.T) {
	// Heavily imbalanced compute: the last node's tasks are 6x the work,
	// and half of each node's tasks are green, so full stealing halves the
	// heavy node's load.
	spec := &taskrt.LoopSpec{
		ID: 7, Name: "imbalanced", Iters: 256, Tasks: 64,
		Demand: func(lo, hi int) (float64, []memsys.Access) {
			w := 20e-6 * float64(hi-lo)
			if lo >= 192 {
				w *= 6
			}
			return w, nil
		},
	}
	opts := DefaultOptions()
	opts.StrictFraction = 0.5
	s := MustNew(opts)
	rt := newRuntime(t, s, 45e9)
	prog := &taskrt.Program{Name: "i", Loops: []*taskrt.LoopSpec{spec}, Sequence: repeat(25, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	cfg, phase, _ := s.ChosenConfig(spec.ID)
	if phase != PhaseSettled {
		t.Fatalf("not settled: %v", phase)
	}
	if !cfg.StealFull {
		t.Fatal("imbalanced loop should settle on steal_policy=full")
	}
}

func TestPTTIndependentPerLoop(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 20e9)
	g := gatherLoop(rt)
	c := computeLoop()
	prog := &taskrt.Program{
		Name:  "mix",
		Loops: []*taskrt.LoopSpec{g, c},
		Sequence: func() []int {
			var q []int
			for i := 0; i < 30; i++ {
				q = append(q, 0, 1)
			}
			return q
		}(),
	}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	gc, _, _ := s.ChosenConfig(g.ID)
	cc, _, _ := s.ChosenConfig(c.ID)
	if gc.Threads >= cc.Threads {
		t.Fatalf("gather loop (%d threads) should be narrower than compute loop (%d)",
			gc.Threads, cc.Threads)
	}
}

func TestChosenConfigUnknownLoop(t *testing.T) {
	s := MustNew(DefaultOptions())
	if _, _, ok := s.ChosenConfig(42); ok {
		t.Fatal("unknown loop reported ok")
	}
	if s.TriedConfigs(42) != nil {
		t.Fatal("unknown loop has tried configs")
	}
}

func TestBadOptionsRejected(t *testing.T) {
	if _, err := New(Options{StrictFraction: 1.5}); err == nil {
		t.Error("StrictFraction > 1 accepted")
	}
	if _, err := New(Options{StrictFraction: -0.1}); err == nil {
		t.Error("StrictFraction < 0 accepted")
	}
	if _, err := New(Options{StrictFraction: 1.0}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestMustNewPanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew accepted StrictFraction > 1")
		}
	}()
	MustNew(Options{StrictFraction: 1.5})
}
