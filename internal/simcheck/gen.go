package simcheck

import (
	"fmt"
	"strings"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/looplang"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

// Scenario generation: randomized (topology, machine, workload, scheduler)
// combinations, valid by construction, driven by an abstract randomness
// source so the same generator serves both cmd/ilanfuzz (sim.RNG) and the
// native go test -fuzz targets (fuzzer-controlled bytes).

// Source supplies the generator's random draws. *sim.RNG satisfies it.
type Source interface {
	Intn(n int) int
	Float64() float64
}

// ByteSource adapts a fuzzer-provided byte string into a Source: each draw
// consumes input bytes, and an exhausted input yields zeros (the generator
// then produces its smallest scenario). This is what makes the native
// fuzz targets coverage-guided — the fuzzer mutates the scenario directly.
type ByteSource struct {
	data []byte
	pos  int
}

// NewByteSource wraps a fuzz input.
func NewByteSource(data []byte) *ByteSource { return &ByteSource{data: data} }

func (b *ByteSource) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// Intn returns a value in [0, n) from two input bytes.
func (b *ByteSource) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	v := int(b.next())<<8 | int(b.next())
	return v % n
}

// Float64 returns a value in [0, 1) from two input bytes.
func (b *ByteSource) Float64() float64 {
	v := int(b.next())<<8 | int(b.next())
	return float64(v) / (1 << 16)
}

// LoopGen is the generated shape of one taskloop: iteration/task counts,
// per-iteration compute, an imbalance amplitude, and optional streamed /
// gathered memory traffic.
type LoopGen struct {
	Iters          int
	Tasks          int
	ComputePerIter float64
	Imbalance      float64 // weight amplitude in [0,1); 0 = uniform
	StreamBytes    int64   // per-iteration streamed bytes (0 = compute only)
	SpanBytes      int64   // per-iteration gathered bytes over a shared region
}

// SchedGen identifies the generated scheduler.
type SchedGen struct {
	// Kind < 0 selects the scripted random-plan scheduler (plans drawn
	// directly from PlanSeed); Kind >= 0 is a harness.Kind.
	Kind     int
	ILANOpts ilan.Options // used when Kind selects an ILAN variant
	PlanSeed uint64       // seed of the scripted scheduler's plan draws
}

// Scenario is one generated simulation: a topology, machine settings, a
// workload program shape, and a scheduler. Scenarios are self-contained
// and deterministic: Run builds everything fresh from the recorded fields.
type Scenario struct {
	Spec  topology.Spec
	Seed  uint64
	Noise bool
	// Programs > 1 runs that many identically-shaped program copies as a
	// concurrent workload through the admission queue; <= 1 is the solo
	// RunProgram path.
	Programs int
	// ArrivalSpread staggers workload program arrivals over [0, spread)
	// seconds (0 = all arrive at t=0). Only meaningful with Programs > 1.
	ArrivalSpread float64
	Sched         SchedGen
	Loops         []LoopGen
	Steps         int
}

// GenTopoSpec draws a random valid topology spec, deliberately covering
// shapes none of the four presets have (odd node counts, single-CCD
// nodes, asymmetric distance ratios). Valid by construction.
func GenTopoSpec(src Source) topology.Spec {
	sockets := 1 + src.Intn(3)
	nps := 1 + src.Intn(4)
	if sockets*nps < 2 {
		nps = 2 // at least two NUMA nodes
	}
	ccd := 1 + src.Intn(4)
	cpn := ccd * (1 + src.Intn(3))
	// Bound total cores to keep a fuzz execution fast.
	for sockets*nps*cpn > 64 {
		if sockets > 1 {
			sockets--
		} else if nps > 2 {
			nps--
		} else {
			cpn = ccd
			break
		}
	}
	same := 1 + src.Float64()           // [1, 2)
	cross := same + 0.1 + src.Float64() // > same
	return topology.Spec{
		Sockets:             sockets,
		NodesPerSocket:      nps,
		CoresPerNode:        cpn,
		CoresPerCCD:         ccd,
		L3BytesPerCCD:       int64(1+src.Intn(32)) << 20,
		SameSocketDistance:  same,
		CrossSocketDistance: cross,
	}
}

// numSchedKinds counts the harness scheduler kinds (KindBaseline ..
// KindShepherd); the generator additionally emits ILAN with randomized
// options and the scripted random-plan scheduler.
const numSchedKinds = int(harness.KindShepherd) + 1

// GenScenario draws a full scenario.
func GenScenario(src Source, seed uint64) Scenario {
	sc := Scenario{
		Spec:  GenTopoSpec(src),
		Seed:  seed,
		Noise: src.Intn(2) == 0,
		Steps: 1 + src.Intn(3),
	}
	nLoops := 1 + src.Intn(3)
	for i := 0; i < nLoops; i++ {
		iters := 1 + src.Intn(48)
		lg := LoopGen{
			Iters:          iters,
			Tasks:          1 + src.Intn(iters),
			ComputePerIter: 1e-7 + 3e-6*src.Float64(),
		}
		switch src.Intn(3) {
		case 0: // compute only
		case 1:
			lg.StreamBytes = int64(1+src.Intn(64)) << 12
		case 2:
			lg.StreamBytes = int64(1+src.Intn(64)) << 12
			lg.SpanBytes = int64(1+src.Intn(16)) << 12
		}
		if src.Intn(2) == 0 {
			lg.Imbalance = 0.9 * src.Float64()
		}
		sc.Loops = append(sc.Loops, lg)
	}

	// Scheduler: the harness kinds, ILAN with randomized options, or the
	// scripted random-plan scheduler that feeds taskrt plans no real
	// scheduler would produce (strict tasks anywhere, chunked flat steals).
	pick := src.Intn(numSchedKinds + 2)
	switch {
	case pick < numSchedKinds:
		sc.Sched = SchedGen{Kind: pick}
	case pick == numSchedKinds:
		sc.Sched = SchedGen{Kind: int(harness.KindILAN), ILANOpts: genILANOpts(src, sc.Spec)}
	default:
		sc.Sched = SchedGen{Kind: -1, PlanSeed: seed ^ 0xc0ffee}
	}

	// Roughly a third of scenarios co-run two program copies so the
	// invariants (plan disjointness, per-exec conservation, cross-exec
	// time monotonicity) are exercised with live co-runners; half of
	// those stagger the arrivals.
	if src.Intn(3) == 0 {
		sc.Programs = 2
		if src.Intn(2) == 0 {
			sc.ArrivalSpread = 1e-4 * src.Float64()
		}
	}
	return sc
}

// genILANOpts draws randomized but always-valid ILAN options for the
// given topology.
func genILANOpts(src Source, spec topology.Spec) ilan.Options {
	cores := spec.Sockets * spec.NodesPerSocket * spec.CoresPerNode
	opts := ilan.DefaultOptions()
	if src.Intn(2) == 0 {
		opts.Granularity = 1 + src.Intn(cores)
	}
	opts.StrictFraction = src.Float64()
	opts.Moldability = src.Intn(2) == 0
	opts.CounterGuided = src.Intn(3) == 0
	if src.Intn(4) == 0 {
		opts.FixedThreads = 1 + src.Intn(cores)
		opts.FixedStealFull = src.Intn(2) == 0
	}
	return opts
}

// scheduler instantiates the scenario's scheduler (fresh state per run).
func (sc Scenario) scheduler() taskrt.Scheduler {
	if sc.Sched.Kind < 0 {
		return &scriptSched{rng: sim.NewRNG(sc.Sched.PlanSeed)}
	}
	k := harness.Kind(sc.Sched.Kind)
	if k == harness.KindILAN && sc.Sched.ILANOpts != (ilan.Options{}) {
		return ilan.MustNew(sc.Sched.ILANOpts)
	}
	return harness.NewScheduler(k)
}

// SchedName names the scenario's scheduler for reports.
func (sc Scenario) SchedName() string {
	if sc.Sched.Kind < 0 {
		return "scripted"
	}
	return harness.Kind(sc.Sched.Kind).String()
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario{%dx%dx%d ccd=%d seed=%#x noise=%v sched=%s steps=%d",
		sc.Spec.Sockets, sc.Spec.NodesPerSocket, sc.Spec.CoresPerNode, sc.Spec.CoresPerCCD,
		sc.Seed, sc.Noise, sc.SchedName(), sc.Steps)
	if sc.Programs > 1 {
		fmt.Fprintf(&b, " progs=%d spread=%.3g", sc.Programs, sc.ArrivalSpread)
	}
	b.WriteString(" loops=[")
	for i, l := range sc.Loops {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "{i=%d t=%d c=%.2g imb=%.2f s=%d g=%d}",
			l.Iters, l.Tasks, l.ComputePerIter, l.Imbalance, l.StreamBytes, l.SpanBytes)
	}
	b.WriteString("]}")
	return b.String()
}

// BuildProgram materializes the scenario's workload on a machine: regions
// are allocated and block-placed across all nodes, loops become LoopSpecs.
func (sc Scenario) BuildProgram(m *machine.Machine) *taskrt.Program {
	return sc.buildProgram(m, -1)
}

// BuildWorkload materializes the scenario as a Programs-way concurrent
// workload: each program is an identically-shaped copy with disjoint loop
// IDs and its own memory regions.
func (sc Scenario) BuildWorkload(m *machine.Machine) *taskrt.Workload {
	n := sc.Programs
	if n < 1 {
		n = 1
	}
	w := &taskrt.Workload{Name: "fuzz", ArrivalSpreadSec: sc.ArrivalSpread}
	for i := 0; i < n; i++ {
		w.Programs = append(w.Programs, sc.buildProgram(m, i))
	}
	return w
}

// buildProgram builds one program copy. idx < 0 is the solo program
// (named "fuzz", loop IDs 1..n — unchanged from before workloads
// existed); idx >= 0 is workload copy "p<idx>" with loop IDs offset by
// 1000*idx so copies never collide.
func (sc Scenario) buildProgram(m *machine.Machine, idx int) *taskrt.Program {
	nodes := make([]int, m.Topology().NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	name, idBase, regPfx := "fuzz", 0, ""
	if idx >= 0 {
		name = fmt.Sprintf("p%d", idx)
		idBase = 1000 * idx
		regPfx = name + "."
	}
	p := &taskrt.Program{Name: name}
	for li, lg := range sc.Loops {
		lg := lg
		var stream, span *memsys.Region
		if lg.StreamBytes > 0 {
			stream = m.Memory().NewRegion(fmt.Sprintf("%sstream%d", regPfx, li),
				int64(lg.Iters)*lg.StreamBytes)
			stream.PlaceBlocked(nodes)
		}
		if lg.SpanBytes > 0 {
			span = m.Memory().NewRegion(fmt.Sprintf("%sspan%d", regPfx, li), 8<<20)
			span.PlaceBlocked(nodes)
		}
		spec := &taskrt.LoopSpec{
			ID:    idBase + li + 1,
			Name:  fmt.Sprintf("loop%d", li),
			Iters: lg.Iters,
			Tasks: lg.Tasks,
			Demand: func(lo, hi int) (float64, []memsys.Access) {
				sec := 0.0
				for i := lo; i < hi; i++ {
					sec += lg.ComputePerIter * looplang.HashWeight(i, lg.Imbalance)
				}
				var acc []memsys.Access
				if stream != nil {
					acc = append(acc, memsys.Access{
						Region: stream, Offset: int64(lo) * lg.StreamBytes,
						Bytes: int64(hi-lo) * lg.StreamBytes, Pattern: memsys.Stream,
					})
				}
				if span != nil {
					acc = append(acc, memsys.Access{
						Region: span, Offset: 0,
						Bytes: int64(hi-lo) * lg.SpanBytes,
						Span:  span.Size(), Pattern: memsys.Gather,
					})
				}
				return sec, acc
			},
		}
		if stream != nil {
			s := stream
			bpi := lg.StreamBytes
			spec.Hint = func(lo, hi int) int {
				mid := (int64(lo) + int64(hi)) / 2 * bpi
				if mid >= s.Size() {
					mid = s.Size() - 1
				}
				return s.HomeNode(mid)
			}
		}
		p.Loops = append(p.Loops, spec)
	}
	for s := 0; s < sc.Steps; s++ {
		for li := range sc.Loops {
			p.Sequence = append(p.Sequence, li)
		}
	}
	return p
}

// eventLimit bounds one scenario run; generated programs are small, so
// hitting this means a runaway scheduling loop, which Run reports.
const eventLimit = 4_000_000

// Result is one checked scenario execution.
type Result struct {
	Digest string // canonical run digest for determinism comparisons
	Err    error  // run failure (event-limit, invalid program) if any
	Check  error  // checker verdict (nil = all invariants held)
	Loops  int
	Tasks  int
	Steals int
}

// Run executes the scenario from scratch under the invariant checker.
func (sc Scenario) Run() Result {
	return sc.runSeed(sc.Seed)
}

// RunReseeded executes the scenario with a different machine seed — the
// noise=0 metamorphic oracle's second run.
func (sc Scenario) RunReseeded(seed uint64) Result {
	return sc.runSeed(seed)
}

func (sc Scenario) runSeed(seed uint64) Result {
	noise := machine.NoiseConfig{}
	if sc.Noise {
		noise = machine.DefaultNoise()
	}
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(sc.Spec),
		Seed:  seed,
		Noise: noise,
		Alpha: -1,
	})
	m.Engine().SetLimit(eventLimit)
	rt := taskrt.New(m, sc.scheduler(), taskrt.DefaultCosts())
	ck := Attach(rt)

	if sc.Programs > 1 {
		wres, err := rt.RunWorkload(sc.BuildWorkload(m))
		r := Result{Err: err, Check: ck.Err()}
		r.Loops, r.Tasks, r.Steals = ck.Stats()
		if err == nil {
			var b strings.Builder
			fmt.Fprintf(&b, "%x", float64(wres.Elapsed))
			for _, pr := range wres.Programs {
				fmt.Fprintf(&b, "|%s:%x:%x:%d:%d", pr.Name, pr.ArrivalSec,
					pr.MakespanSec, pr.LoopExecutions, pr.TasksExecuted)
			}
			r.Digest = b.String()
		}
		return r
	}

	prog := sc.BuildProgram(m)
	res, err := rt.RunProgram(prog)
	r := Result{Err: err, Check: ck.Err()}
	r.Loops, r.Tasks, r.Steals = ck.Stats()
	if err == nil {
		r.Digest = fmt.Sprintf("%x|%x|%d|%d|%d|%d|%x",
			float64(res.Elapsed), res.OverheadSec, res.LoopExecutions,
			res.TasksExecuted, res.StealsLocal, res.StealsRemote,
			res.WeightedAvgThreads)
	}
	return r
}
