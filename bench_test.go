// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md and micro-benchmarks of the simulator substrate.
//
// The figure benches run the reduced (test-class) workloads so that
// `go test -bench=.` completes quickly; the shapes match the paper-scale
// campaign driven by cmd/ilanexp. Custom metrics carry the quantity each
// figure reports: "speedup" (vs the baseline scheduler), "threads"
// (weighted average active threads), "ovh-ratio" (overhead vs baseline),
// and "stddev-s" (run-to-run standard deviation in virtual seconds).
package ilan_test

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	ilansched "github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obsserve"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/stats"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// benchMachine builds the 64-core paper platform with noise off, so bench
// metrics are stable across -count runs.
func benchMachine(seed uint64) *machine.Machine {
	return machine.New(machine.Config{
		Topo:  topology.MustNew(topology.Zen4Vera()),
		Seed:  seed,
		Noise: machine.NoiseConfig{Enabled: false},
		Alpha: -1,
	})
}

// runBench executes one benchmark under one scheduler and returns the
// elapsed virtual seconds and the run result.
func runBench(b *testing.B, w workloads.Benchmark, mk func() taskrt.Scheduler, seed uint64) (float64, *taskrt.RunResult) {
	b.Helper()
	m := benchMachine(seed)
	prog := w.Build(m, workloads.ClassTest)
	rt := taskrt.New(m, mk(), taskrt.DefaultCosts())
	res, err := rt.RunProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.Elapsed), res
}

func newILAN() taskrt.Scheduler { return ilansched.MustNew(ilansched.DefaultOptions()) }
func newNoMold() taskrt.Scheduler {
	o := ilansched.DefaultOptions()
	o.Moldability = false
	return ilansched.MustNew(o)
}
func newBaseline() taskrt.Scheduler    { return &sched.Baseline{} }
func newWorkSharing() taskrt.Scheduler { return &sched.WorkSharing{} }

// BenchmarkFig2 regenerates Figure 2's quantity per benchmark: the
// normalized speedup of ILAN over the default work-stealing baseline.
func BenchmarkFig2(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				base, _ := runBench(b, w, newBaseline, uint64(i))
				il, _ := runBench(b, w, newILAN, uint64(i))
				speedup = base / il
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkFig3 regenerates Figure 3's quantity: the weighted average
// thread count ILAN selects per benchmark.
func BenchmarkFig3(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var threads float64
			for i := 0; i < b.N; i++ {
				_, res := runBench(b, w, newILAN, uint64(i))
				threads = res.WeightedAvgThreads
			}
			b.ReportMetric(threads, "threads")
		})
	}
}

// BenchmarkFig4 regenerates Figure 4: ILAN without moldability vs baseline.
func BenchmarkFig4(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				base, _ := runBench(b, w, newBaseline, uint64(i))
				nm, _ := runBench(b, w, newNoMold, uint64(i))
				speedup = base / nm
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkTable1 regenerates Table 1's quantity: the run-to-run standard
// deviation of execution time under the baseline and under ILAN (noise on,
// 6 repetitions per iteration at bench scale; the paper uses 30).
func BenchmarkTable1(b *testing.B) {
	run := func(w workloads.Benchmark, mk func() taskrt.Scheduler, rep uint64) float64 {
		m := machine.New(machine.Config{
			Topo:  topology.MustNew(topology.Zen4Vera()),
			Seed:  rep,
			Noise: machine.DefaultNoise(),
			Alpha: -1,
		})
		rt := taskrt.New(m, mk(), taskrt.DefaultCosts())
		res, err := rt.RunProgram(w.Build(m, workloads.ClassTest))
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var sdBase, sdILAN float64
			for i := 0; i < b.N; i++ {
				var baseT, ilanT []float64
				for rep := 0; rep < 6; rep++ {
					seed := uint64(i*100 + rep)
					baseT = append(baseT, run(w, newBaseline, seed))
					ilanT = append(ilanT, run(w, newILAN, seed))
				}
				sdBase, sdILAN = stats.StdDev(baseT), stats.StdDev(ilanT)
			}
			b.ReportMetric(sdBase, "stddev-base-s")
			b.ReportMetric(sdILAN, "stddev-ilan-s")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5's quantity: accumulated scheduling
// overhead of ILAN normalized to the baseline (lower is better).
func BenchmarkFig5(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				_, baseRes := runBench(b, w, newBaseline, uint64(i))
				_, ilanRes := runBench(b, w, newILAN, uint64(i))
				ratio = ilanRes.OverheadSec / baseRes.OverheadSec
			}
			b.ReportMetric(ratio, "ovh-ratio")
		})
	}
}

// BenchmarkFig6 regenerates Figure 6's quantity: the speedup of static
// OpenMP work-sharing over the tasking baseline (read together with
// BenchmarkFig2 for the ILAN series).
func BenchmarkFig6(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				base, _ := runBench(b, w, newBaseline, uint64(i))
				ws, _ := runBench(b, w, newWorkSharing, uint64(i))
				speedup = base / ws
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// --- ablations (DESIGN.md section 5) ---

// BenchmarkAblationContention isolates the queueing-contention model: CG
// under ILAN with the quadratic term on (default) vs off (beta = -1). With
// the term off the interference signal disappears and moldability stops
// paying.
func BenchmarkAblationContention(b *testing.B) {
	w, _ := workloads.ByName("CG")
	for _, tc := range []struct {
		name string
		beta float64
	}{{"quadratic-on", 0}, {"quadratic-off", -1}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var threads float64
			for i := 0; i < b.N; i++ {
				m := machine.New(machine.Config{
					Topo: topology.MustNew(topology.Zen4Vera()), Seed: uint64(i),
					Noise: machine.NoiseConfig{Enabled: false}, Alpha: -1, Beta: tc.beta,
				})
				rt := taskrt.New(m, newILAN(), taskrt.DefaultCosts())
				res, err := rt.RunProgram(w.Build(m, workloads.ClassTest))
				if err != nil {
					b.Fatal(err)
				}
				threads = res.WeightedAvgThreads
			}
			b.ReportMetric(threads, "threads")
		})
	}
}

// BenchmarkAblationCache isolates the CCD L3 model: FT under ILAN with the
// cache on vs disabled; the delta is the cache-reuse share of the locality
// win.
func BenchmarkAblationCache(b *testing.B) {
	w, _ := workloads.ByName("FT")
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"l3-on", false}, {"l3-off", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				m := machine.New(machine.Config{
					Topo: topology.MustNew(topology.Zen4Vera()), Seed: uint64(i),
					Noise: machine.NoiseConfig{Enabled: false}, Alpha: -1, DisableL3: tc.disable,
				})
				rt := taskrt.New(m, newILAN(), taskrt.DefaultCosts())
				res, err := rt.RunProgram(w.Build(m, workloads.ClassTest))
				if err != nil {
					b.Fatal(err)
				}
				elapsed = float64(res.Elapsed)
			}
			b.ReportMetric(elapsed, "vsec")
		})
	}
}

// BenchmarkAblationGranularity sweeps ILAN's thread-count granularity g on
// CG: the paper uses g = NUMA-node size (8); finer granularity explores
// longer, coarser granularity can miss the optimum.
func BenchmarkAblationGranularity(b *testing.B) {
	w, _ := workloads.ByName("CG")
	for _, g := range []int{4, 8, 16, 32} {
		g := g
		b.Run(map[int]string{4: "g4", 8: "g8-paper", 16: "g16", 32: "g32"}[g], func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				m := benchMachine(uint64(i))
				opts := ilansched.DefaultOptions()
				opts.Granularity = g
				rt := taskrt.New(m, ilansched.MustNew(opts), taskrt.DefaultCosts())
				res, err := rt.RunProgram(w.Build(m, workloads.ClassTest))
				if err != nil {
					b.Fatal(err)
				}
				elapsed = float64(res.Elapsed)
			}
			b.ReportMetric(elapsed, "vsec")
		})
	}
}

// BenchmarkAblationStealSplit sweeps the strict/stealable split of the
// hierarchical distribution on the imbalanced CG workload: 1.0 means no
// task may ever leave its node even under steal_policy=full.
func BenchmarkAblationStealSplit(b *testing.B) {
	w, _ := workloads.ByName("CG")
	for _, frac := range []float64{0.5, 0.75, 1.0} {
		frac := frac
		b.Run(map[float64]string{0.5: "strict50", 0.75: "strict75-paper", 1.0: "strict100"}[frac],
			func(b *testing.B) {
				var elapsed float64
				for i := 0; i < b.N; i++ {
					m := benchMachine(uint64(i))
					opts := ilansched.DefaultOptions()
					opts.StrictFraction = frac
					rt := taskrt.New(m, ilansched.MustNew(opts), taskrt.DefaultCosts())
					res, err := rt.RunProgram(w.Build(m, workloads.ClassTest))
					if err != nil {
						b.Fatal(err)
					}
					elapsed = float64(res.Elapsed)
				}
				b.ReportMetric(elapsed, "vsec")
			})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkEngineEvents measures raw event throughput of the DES core.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1e-6, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// masterQueueSched is a fixed scheduler for the dispatch/steal
// micro-benchmark: every task lands on core 0's deque, every other thread
// must steal hierarchically (inter-node allowed, chunked transfers), which
// maximizes victim scans per dispatch.
type masterQueueSched struct{ chunk int }

func (s *masterQueueSched) Name() string { return "bench-masterq" }
func (s *masterQueueSched) Plan(rt *taskrt.Runtime, spec *taskrt.LoopSpec, _ *taskrt.Occupancy) *taskrt.Plan {
	p := &taskrt.Plan{
		Active:         make([]int, rt.Topology().NumCores()),
		Place:          make([]taskrt.TaskPlacement, 0, spec.Tasks),
		Mode:           taskrt.StealHierarchical,
		InterNodeSteal: true,
		StealChunk:     s.chunk,
	}
	for c := range p.Active {
		p.Active[c] = c
	}
	for t := 0; t < spec.Tasks; t++ {
		lo, hi := spec.ChunkBounds(t)
		p.Place = append(p.Place, taskrt.TaskPlacement{Lo: lo, Hi: hi, Core: 0})
	}
	return p
}
func (s *masterQueueSched) Observe(*taskrt.Runtime, *taskrt.LoopSpec, *taskrt.LoopStats) {}

// BenchmarkDispatchSteal measures the taskrt dispatch/steal loop in
// isolation: compute-only tasks keep the machine model trivial, so ns/op
// approximates the scheduling cost per dispatched task (pop or steal,
// victim shuffle, chunk transfer, completion bookkeeping).
func BenchmarkDispatchSteal(b *testing.B) {
	b.ReportAllocs()
	const tasksPerLoop = 1024
	m := benchMachine(1)
	rt := taskrt.New(m, &masterQueueSched{chunk: 4}, taskrt.DefaultCosts())
	spec := &taskrt.LoopSpec{
		ID: 1, Name: "steal", Iters: tasksPerLoop, Tasks: tasksPerLoop,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 1e-7, nil },
	}
	eng := m.Engine()
	b.ResetTimer()
	for done := 0; done < b.N; done += tasksPerLoop {
		rt.SubmitLoop(spec, nil)
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineExec measures the fluid-model task execution path with
// contention refreshes across 64 concurrently running tasks.
func BenchmarkMachineExec(b *testing.B) {
	b.ReportAllocs()
	m := benchMachine(1)
	r := m.Memory().NewRegion("r", 1<<30)
	nodes := make([]int, 8)
	for i := range nodes {
		nodes[i] = i
	}
	r.PlaceBlocked(nodes)
	cores := m.Topology().NumCores()
	done := 0
	var launch func(core int)
	launch = func(core int) {
		off := (int64(done) * memsys.BlockSize) % (1<<30 - 4*memsys.BlockSize)
		m.Exec(core, 1e-6, []memsys.Access{{Region: r, Offset: off, Bytes: memsys.BlockSize, Pattern: memsys.Stream}},
			func() {
				done++
				if done < b.N {
					launch(core)
				}
			})
	}
	b.ResetTimer()
	for c := 0; c < cores && c < b.N; c++ {
		launch(c)
	}
	if err := m.Engine().Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRefreshStorm measures the per-boundary cost of event-driven
// processor sharing under worst-case sharing: N memory-bound co-runners
// all hammering one memory controller, so every task start and completion
// re-rates all N sharers. This is the path the instant-coalesced refresh
// and in-place rescheduling optimize; the sweep over N exposes any
// superlinear growth in the sharer count. b.N counts task executions.
func BenchmarkRefreshStorm(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			m := benchMachine(1)
			r := m.Memory().NewRegion("hot", 64*memsys.BlockSize)
			r.PlaceOnNode(0)
			acc := []memsys.Access{{Region: r, Offset: 0, Bytes: 8 * memsys.BlockSize, Pattern: memsys.Stream}}
			done := 0
			// One relaunch callback per core, bound before the timer: the
			// measured loop itself must stay allocation-free.
			relaunch := make([]func(), n)
			for c := 0; c < n; c++ {
				c := c
				relaunch[c] = func() {
					done++
					if done < b.N {
						m.Exec(c, 1e-6, acc, relaunch[c])
					}
				}
			}
			b.ResetTimer()
			for c := 0; c < n && c < b.N; c++ {
				m.Exec(c, 1e-6, acc, relaunch[c])
			}
			if err := m.Engine().Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkResolver measures access resolution (cache model + distance
// inflation), the per-task hot path of the memory system.
func BenchmarkResolver(b *testing.B) {
	b.ReportAllocs()
	topo := topology.MustNew(topology.Zen4Vera())
	mem := memsys.NewMemory(topo)
	res := memsys.NewResourceSet(topo)
	caches := memsys.NewCacheSet(topo)
	rv := memsys.NewResolver(topo, res, caches)
	r := mem.NewRegion("r", 1<<30)
	acc := []memsys.Access{
		{Region: r, Offset: 0, Bytes: 4 * memsys.BlockSize, Pattern: memsys.Stream},
		{Region: r, Offset: 0, Bytes: memsys.BlockSize, Span: 64 * memsys.BlockSize, Pattern: memsys.Gather},
	}
	var d memsys.Demand
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv.Resolve(i%64, acc, &d)
	}
}

// BenchmarkFullCampaignCG measures an entire CG run under ILAN at test
// scale: the end-to-end cost of one experiment repetition.
func BenchmarkFullCampaignCG(b *testing.B) {
	b.ReportAllocs()
	w, _ := workloads.ByName("CG")
	for i := 0; i < b.N; i++ {
		runBench(b, w, newILAN, uint64(i))
	}
}

// perLoopAllocs measures the per-loop allocation count of a warmed
// runtime driving a 512-task compute loop — the hot path the zero-alloc
// contract (DESIGN.md §8) protects.
func perLoopAllocs(t *testing.T) float64 {
	t.Helper()
	m := benchMachine(1)
	rt := taskrt.New(m, newBaseline(), taskrt.DefaultCosts())
	spec := &taskrt.LoopSpec{
		ID: 1, Name: "hot", Iters: 512, Tasks: 512,
		Demand: func(lo, hi int) (float64, []memsys.Access) { return 1e-7, nil },
	}
	eng := m.Engine()
	// One warm loop so deque growth and plan buffers are paid up front.
	rt.SubmitLoop(spec, nil)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(8, func() {
		rt.SubmitLoop(spec, nil)
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
}

// TestServeAddsZeroHotPathAllocs pins the live-monitor overhead contract:
// with a -serve monitor attached (tracker live, HTTP server up, endpoints
// scraped before and after), the per-loop hot path allocates exactly what
// it does without one. The tracker is only touched once per repetition at
// the harness layer — never per loop or per task — and the server only
// reads snapshots, so the simulator can never block on (or allocate for)
// the monitor. Scrapes sit outside the measured window because
// AllocsPerRun counts allocations on every goroutine.
func TestServeAddsZeroHotPathAllocs(t *testing.T) {
	base := perLoopAllocs(t)

	track := harness.NewTracker()
	track.Begin("bench", []harness.CellDecl{{Name: "hot/baseline", Units: 2}})
	srv := obsserve.New(track)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scrape := func() {
		for _, ep := range []string{"/metrics", "/progress"} {
			resp, err := http.Get("http://" + addr + ep)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	scrape()
	track.UnitDone(0, 0, nil, nil, nil)
	served := perLoopAllocs(t)
	track.UnitDone(0, 1, nil, nil, nil)
	track.Finish(nil)
	scrape()

	t.Logf("per-loop allocs: without monitor = %g, with monitor = %g", base, served)
	if served != base {
		t.Fatalf("-serve changed per-loop allocations: %g without monitor, %g with (must be identical)",
			base, served)
	}
}

// BenchmarkCampaignJobs measures the parallel experiment executor: the
// same small campaign run sequentially and fanned across workers. On a
// multi-core host the jobsN variant shows the wall-clock win; on one core
// it bounds the pool's overhead. vsec carries the (identical) simulated
// output so a result change is visible in the metrics.
func BenchmarkCampaignJobs(b *testing.B) {
	campaign := func(jobs int) float64 {
		cfg := harness.Config{
			Class: workloads.ClassTest,
			Reps:  4,
			Seed:  7,
			Jobs:  jobs,
			Noise: machine.NoiseConfig{Enabled: false},
			Topo:  topology.SmallTest(),
		}
		benches := []workloads.Benchmark{}
		for _, name := range []string{"CG", "FT"} {
			w, _ := workloads.ByName(name)
			benches = append(benches, w)
		}
		mx, err := harness.Run(benches, []harness.Kind{harness.KindBaseline, harness.KindILAN}, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		mx.EachCell(func(c *harness.Cell) {
			for _, s := range c.Samples {
				total += s.ElapsedSec
			}
		})
		return total
	}
	for _, tc := range []struct {
		name string
		jobs int
	}{{"jobs1", 1}, {"jobsN", 0}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = campaign(tc.jobs)
			}
			b.ReportMetric(total, "vsec")
		})
	}
}
