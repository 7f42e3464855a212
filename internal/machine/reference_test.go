package machine

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

// The reference solver: a from-scratch implementation of the fluid
// contention model (MODEL.md §1–2) that the production solver is checked
// against. It shares nothing with production beyond the task inputs: no
// dirty list, no pooling, no positions, no cached aggregates. At every
// arrival and every completion it recomputes every resource's load and
// service sum from the running set and every running task's remaining time
// T, steps to the next event, and drains every component by dt/T. It is
// slow on purpose, so it can be checked by reading it.

// refTask is one task as the reference sees it: the resolved start state
// production recorded right after Exec. res is a private copy whose bytes
// the reference drains in place.
type refTask struct {
	start   float64
	speed   float64 // core speed at Exec
	compute float64 // jittered compute seconds at unit speed
	res     []resShare
}

// refModel is the machine-wide input of the reference: peak bandwidths,
// the contention coefficients, and the sustained external loads.
type refModel struct {
	ctrlBW, linkBW, portBW float64
	alpha, beta            float64
	ctrl                   []bool    // resource r is a memory controller
	external               []float64 // DisturbNode load per resource
}

func newRefModel(m *Machine) refModel {
	rm := refModel{
		ctrlBW:   m.res.ControllerBW,
		linkBW:   m.res.LinkBW,
		portBW:   m.res.CoreStreamBW,
		alpha:    m.res.Alpha,
		beta:     m.res.Beta,
		ctrl:     make([]bool, m.res.Count()),
		external: append([]float64(nil), m.externalLoad...),
	}
	for r := range rm.ctrl {
		rm.ctrl[r] = m.res.IsController(memsys.ResourceID(r))
	}
	return rm
}

// effBW is MODEL.md §2: EffBW(r, W) = BW_r / (1 + α(W−1) + β(W−1)²), with
// no degradation below one full-time requester.
func (rm *refModel) effBW(r int, load float64) float64 {
	bw := rm.linkBW
	if rm.ctrl[r] {
		bw = rm.ctrlBW
	}
	over := math.Max(load-1, 0)
	return bw / (1 + rm.alpha*over + rm.beta*over*over)
}

// remaining is MODEL.md §1:
//
//	T = compute/coreSpeed + max( Σ_ctrl b_r / CoreStreamBW,
//	                             max_r b_r·svc_r / (w_r·EffBW(r, load_r)) )
func (rm *refModel) remaining(t *refTask, load, svc []float64) float64 {
	var ctrlBytes, mem float64
	for _, e := range t.res {
		if rm.ctrl[e.r] {
			ctrlBytes += e.bytes
		}
		mem = math.Max(mem, e.bytes*svc[e.r]/(e.weight*rm.effBW(e.r, load[e.r])))
	}
	return t.compute/t.speed + math.Max(ctrlBytes/rm.portBW, mem)
}

// solve runs every task to completion and returns its finish time.
func (rm *refModel) solve(tasks []refTask) []float64 {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tasks[order[a]].start < tasks[order[b]].start })
	finish := make([]float64, len(tasks))
	T := make([]float64, len(tasks))
	load := make([]float64, len(rm.external))
	svc := make([]float64, len(rm.external))
	var running []int
	now := 0.0
	for next := 0; next < len(order) || len(running) > 0; {
		for ; next < len(order) && tasks[order[next]].start <= now; next++ {
			running = append(running, order[next])
		}
		copy(load, rm.external)
		clear(svc)
		for _, i := range running {
			for _, e := range tasks[i].res {
				load[e.r] += e.loadW
				svc[e.r] += e.weight
			}
		}
		until := math.Inf(1)
		if next < len(order) {
			until = tasks[order[next]].start
		}
		for _, i := range running {
			T[i] = rm.remaining(&tasks[i], load, svc)
			until = math.Min(until, now+T[i])
		}
		dt := until - now
		if !(dt >= 0) || math.IsInf(dt, 0) {
			panic(fmt.Sprintf("reference: no finite next event after t=%g", now))
		}
		still := running[:0]
		for _, i := range running {
			if now+T[i] <= until {
				finish[i] = now + T[i]
				continue
			}
			keep := 1 - dt/T[i]
			t := &tasks[i]
			t.compute *= keep
			for k := range t.res {
				t.res[k].bytes *= keep
			}
			still = append(still, i)
		}
		running = still
		now = until
	}
	return finish
}

// refSource turns a fuzz input into scenario draws. The input bytes steer
// the first draws; once they run out, a generator seeded from them takes
// over, so every input — the empty one included — is a full scenario.
type refSource struct {
	data []byte
	rng  *sim.RNG
}

func newRefSource(data []byte) *refSource {
	h := fnv.New64a()
	h.Write(data)
	return &refSource{data: data, rng: sim.NewRNG(h.Sum64())}
}

func (s *refSource) next() int {
	if len(s.data) == 0 {
		return s.rng.Intn(256)
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// intn draws from [0, n); frac draws from [0, 1).
func (s *refSource) intn(n int) int { return (s.next()<<8 | s.next()) % n }
func (s *refSource) frac() float64  { return float64(s.next()<<8|s.next()) / (1 << 16) }

var refPresets = []string{"1socket", "4socket", "smalltest", "zen4"}

// refFeatures names everything the differential test requires its
// scenarios to have exercised; runRefScenario records which of them a
// scenario did.
var refFeatures = []string{
	"preset 1socket", "preset 4socket", "preset smalltest", "preset zen4",
	"noise on", "noise off", "jitter on", "jitter off",
	"alpha override", "beta override", "DisturbNode",
	"pattern stream", "pattern gather", "pattern transpose",
	"zero-work task", "compute-only task", "lockstep co-completion",
	"relaunch in the same instant", "relaunch after a delay",
}

// refStep is one scripted task; delay < 0 launches it in the instant its
// predecessor completes, otherwise that many seconds later (the first step
// of a chain counts from t=0).
type refStep struct {
	compute float64
	acc     []memsys.Access
	delay   float64
}

// refRun is one production run of a generated scenario: the reference
// inputs captured at every Exec and the completion times production
// reported.
type refRun struct {
	model  refModel
	tasks  []refTask
	finish []float64
	feats  map[string]bool // which refFeatures the scenario exercised
	desc   string
}

// runRefScenario draws a machine configuration and a per-core launch
// script, runs it on production, and records the reference inputs.
func runRefScenario(tb testing.TB, src *refSource) *refRun {
	tb.Helper()
	run := &refRun{feats: map[string]bool{}}
	preset := src.intn(len(refPresets))
	run.feats["preset "+refPresets[preset]] = true
	topo := topology.MustNew(topology.Presets()[refPresets[preset]])
	cfg := Config{Topo: topo, Seed: uint64(src.intn(1 << 16)), Alpha: -1, DisableL3: src.intn(4) == 0}
	if src.intn(2) == 0 {
		cfg.Noise = NoiseConfig{Enabled: true, CoreSpeedSigma: 0.05, OutlierProb: 0.5, OutlierSlowdown: 0.8}
		run.feats["noise on"] = true
	} else {
		run.feats["noise off"] = true
	}
	if src.intn(2) == 0 {
		cfg.Noise.Enabled = true
		cfg.Noise.TaskJitterSigma = 0.1
		run.feats["jitter on"] = true
	} else {
		run.feats["jitter off"] = true
	}
	if src.intn(3) == 0 {
		cfg.Alpha = 0.5 * src.frac()
		run.feats["alpha override"] = true
	}
	switch src.intn(3) {
	case 0:
		cfg.Beta = -1 // forces β = 0
		run.feats["beta override"] = true
	case 1:
		cfg.Beta = 1e-4 + 0.02*src.frac()
		run.feats["beta override"] = true
	}
	if src.intn(4) == 0 {
		cfg.ControllerBW = 20e9 + 40e9*src.frac()
		cfg.LinkBW = 30e9 + 150e9*src.frac()
		cfg.CoreStreamBW = 5e9 + 20e9*src.frac()
	}
	m := New(cfg)
	checkEff(tb, m)
	if src.intn(3) == 0 {
		m.DisturbNode(src.intn(topo.NumNodes()), 0.3+0.7*src.frac(), 8*src.frac())
		run.feats["DisturbNode"] = true
		checkEff(tb, m)
	}
	run.model = newRefModel(m)

	nodes := make([]int, topo.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	const regionBlocks = 32
	regions := make([]*memsys.Region, 3)
	for i := range regions {
		regions[i] = m.Memory().NewRegion(fmt.Sprintf("r%d", i), regionBlocks*memsys.BlockSize)
	}
	regions[0].PlaceOnNode(src.intn(len(nodes)))
	regions[1].PlaceInterleaved(nodes)
	regions[2].PlaceBlocked(nodes)

	genStep := func() refStep {
		st := refStep{delay: -1}
		if src.intn(2) == 0 {
			st.delay = 2e-4 * src.frac()
		}
		switch src.intn(6) {
		case 0:
			run.feats["zero-work task"] = true
			return st
		case 1:
			run.feats["compute-only task"] = true
			st.compute = 1e-6 + 1e-3*src.frac()
			return st
		}
		if src.intn(2) == 0 {
			st.compute = 1e-4 * src.frac()
		}
		for n := 1 + src.intn(3); n > 0; n-- {
			pat := memsys.Pattern(src.intn(3))
			run.feats["pattern "+pat.String()] = true
			a := memsys.Access{
				Region:  regions[src.intn(len(regions))],
				Offset:  int64(src.intn(regionBlocks/2)) * memsys.BlockSize / 2,
				Bytes:   int64(1+src.intn(64)) * memsys.BlockSize / 16,
				Pattern: pat,
			}
			if pat != memsys.Stream {
				a.Span = a.Bytes * int64(1+src.intn(4))
			}
			st.acc = append(st.acc, a)
		}
		return st
	}

	// Cores follow a few shared chain templates; with noise off, cores on
	// one node running one template complete in lockstep.
	active := 1 + src.intn(min(topo.NumCores(), 64))
	templates := make([][]refStep, min(1+src.intn(3), active))
	for i := range templates {
		templates[i] = make([]refStep, 1+src.intn(6))
		for k := range templates[i] {
			templates[i][k] = genStep()
			if k > 0 && templates[i][k].delay < 0 {
				run.feats["relaunch in the same instant"] = true
			} else if k > 0 {
				run.feats["relaunch after a delay"] = true
			}
		}
	}
	run.desc = fmt.Sprintf("%s cores=%d templates=%d noise=%+v alpha=%g beta=%g bw=%g/%g/%g l3off=%v ext=%v",
		refPresets[preset], active, len(templates), cfg.Noise, m.res.Alpha, m.res.Beta,
		m.res.ControllerBW, m.res.LinkBW, m.res.CoreStreamBW, cfg.DisableL3, run.model.external)

	eng := m.Engine()
	var launch func(core int, chain []refStep)
	launch = func(core int, chain []refStep) {
		id := len(run.tasks)
		m.Exec(core, chain[0].compute, chain[0].acc, func() {
			checkEff(tb, m)
			run.finish[id] = float64(eng.Now())
			if len(chain) == 1 {
				return
			}
			if d := chain[1].delay; d >= 0 {
				eng.After(sim.Duration(d), func() { launch(core, chain[1:]) })
			} else {
				launch(core, chain[1:])
			}
		})
		checkEff(tb, m)
		ft := m.running[core]
		run.tasks = append(run.tasks, refTask{
			start:   float64(ft.started),
			speed:   m.CoreSpeed(core),
			compute: ft.compute,
			res:     append([]resShare(nil), ft.res...),
		})
		run.finish = append(run.finish, math.NaN())
	}
	for core := 0; core < active; core++ {
		chain := templates[core%len(templates)]
		if d := chain[0].delay; d > 0 {
			eng.At(sim.Time(d), func() { launch(core, chain) })
		} else {
			launch(core, chain)
		}
	}
	if err := eng.Run(); err != nil {
		tb.Fatalf("%v\n%s", err, run.desc)
	}
	if !m.Quiesced() {
		tb.Fatalf("machine not quiesced after the scenario\n%s", run.desc)
	}

	var memFinish []float64
	for i, t := range run.tasks {
		if len(t.res) > 0 {
			memFinish = append(memFinish, run.finish[i])
		}
	}
	sort.Float64s(memFinish)
	for i := 1; i < len(memFinish); i++ {
		if memFinish[i] == memFinish[i-1] {
			run.feats["lockstep co-completion"] = true
			break
		}
	}
	return run
}

// checkEff requires every resource's cached delivered bandwidth to be the
// one the contention formula gives for its current load, bit for bit. The
// scenario calls it after every load change: New, DisturbNode, every Exec
// and every completion.
func checkEff(tb testing.TB, m *Machine) {
	tb.Helper()
	for r, ls := range m.ls {
		bw := m.res.Bandwidth(memsys.ResourceID(r))
		if want := m.res.Eff(bw, ls.load); math.Float64bits(ls.eff) != math.Float64bits(want) {
			tb.Fatalf("t=%v: resource %d caches eff %v at load %v, Eff gives %v", m.eng.Now(), r, ls.eff, ls.load, want)
		}
	}
}

// refTolerance bounds the relative difference between a production
// completion time and the reference's.
const refTolerance = 1e-9

// checkReference solves the run with the reference and returns the worst
// relative completion-time error, failing on any task beyond tolerance.
func checkReference(tb testing.TB, run *refRun) float64 {
	tb.Helper()
	want := run.model.solve(run.tasks)
	worst := 0.0
	for i, got := range run.finish {
		if math.IsNaN(got) {
			tb.Fatalf("task %d never completed\n%s", i, run.desc)
		}
		rel := math.Abs(got-want[i]) / math.Max(math.Abs(want[i]), math.SmallestNonzeroFloat64)
		if !(rel <= refTolerance) {
			tb.Fatalf("task %d (start %g, %d resources) completed at %.17g, reference %.17g (rel err %.3g)\n%s",
				i, run.tasks[i].start, len(run.tasks[i].res), got, want[i], rel, run.desc)
		}
		worst = math.Max(worst, rel)
	}
	return worst
}

// TestReferenceSolverDifferential checks production completion times
// against the reference over randomized scenarios, and asserts that the
// scenarios covered every topology preset, both noise and jitter settings,
// α/β overrides, DisturbNode, all three access patterns, zero-work and
// compute-only tasks, lockstep co-completions, and relaunches in the same
// instant and after a delay.
func TestReferenceSolverDifferential(t *testing.T) {
	const scenarios = 256
	seen := map[string]bool{}
	var worst float64
	tasks := 0
	for i := 0; i < scenarios; i++ {
		rng := sim.NewRNG(uint64(i))
		data := make([]byte, 16)
		for k := range data {
			data[k] = byte(rng.Uint64())
		}
		run := runRefScenario(t, newRefSource(data))
		worst = math.Max(worst, checkReference(t, run))
		for f := range run.feats {
			seen[f] = true
		}
		tasks += len(run.tasks)
	}
	for _, f := range refFeatures {
		if !seen[f] {
			t.Errorf("no scenario exercised %s", f)
		}
	}
	t.Logf("%d scenarios, %d tasks, worst relative error %.3g", scenarios, tasks, worst)
}

// FuzzReferenceSolver feeds fuzzer-chosen scenarios to the same check:
// every production completion time must match the reference.
//
//	go test -fuzz=FuzzReferenceSolver -fuzztime=30s ./internal/machine
func FuzzReferenceSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReference(t, runRefScenario(t, newRefSource(data)))
	})
}
