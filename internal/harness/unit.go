package harness

import (
	"fmt"

	"github.com/ilan-sched/ilan/internal/ilan"
	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// One unit type, one executor.
//
// Every campaign kind — the solo matrix (Run), the sensitivity sweep, the
// oracle study and the co-run campaign — is a list of independent units
// plus a reducer over their samples. A unit is one simulation at one
// repetition: a solo benchmark, a co-run workload, or a solo benchmark
// under a fixed ILAN configuration. The executor (campaign.run) gives the
// tracker one Begin and one Finish per campaign, fans the units across
// the pool, memoizes each through the cache, and publishes each through
// UnitDone.

// fixedConfig pins ILAN to one (threads, steal policy) configuration: the
// oracle study's fixed points.
type fixedConfig struct {
	Threads   int  `json:"threads"`
	StealFull bool `json:"stealFull"`
}

// unit is one simulation of a campaign.
type unit struct {
	bench   workloads.Benchmark   // solo and fixed units
	benches []workloads.Benchmark // co-run units (nil otherwise)
	fixed   *fixedConfig          // fixed units (nil otherwise)
	kind    Kind
	rep     int
	// cfg is the campaign config normalized for the unit type, so that it
	// holds exactly the inputs the simulation reads (see the constructors
	// and the key contract in cache.go).
	cfg Config
	// cell is the tracker cell a campaign unit reports into; solo or multi
	// is the sample slot exec fills.
	cell  int
	solo  *RunSample
	multi *MultiSample
}

// soloUnit is a benchmark under a scheduler kind. A solo simulation never
// reads the co-run descriptor, so it is normalized out: a co-run
// campaign's solo references share cache entries with plain campaigns.
func soloUnit(b workloads.Benchmark, k Kind, cfg Config) unit {
	cfg.Multi = nil
	return unit{bench: b, kind: k, cfg: cfg}
}

// coRunUnit is the co-run workload cfg.Multi describes under a scheduler
// kind. Attribution is a solo-program report, so co-run units never
// collect it.
func coRunUnit(benches []workloads.Benchmark, k Kind, cfg Config) unit {
	cfg.Attr = false
	return unit{benches: benches, kind: k, cfg: cfg}
}

// fixedUnit is a benchmark under ILAN pinned to fc. The oracle reads only
// elapsed times, so every observer is off.
func fixedUnit(b workloads.Benchmark, fc fixedConfig, cfg Config) unit {
	cfg.Multi = nil
	cfg.Metrics, cfg.TraceDecisions, cfg.TraceTasks, cfg.Attr = false, false, false, false
	return unit{bench: b, kind: KindILAN, fixed: &fc, cfg: cfg}
}

// name identifies the unit's cell in errors and progress.
func (u *unit) name() string {
	switch {
	case u.benches != nil:
		return u.cfg.Multi.Scenario() + "/" + u.kind.String()
	case u.fixed != nil:
		policy := "strict"
		if u.fixed.StealFull {
			policy = "full"
		}
		return fmt.Sprintf("%s/fixed %d/%s", u.bench.Name, u.fixed.Threads, policy)
	default:
		return u.bench.Name + "/" + u.kind.String()
	}
}

// scheduler constructs the unit's fresh scheduler.
func (u *unit) scheduler() taskrt.Scheduler {
	if u.fixed == nil {
		return NewScheduler(u.kind)
	}
	opts := ilan.DefaultOptions()
	opts.FixedThreads = u.fixed.Threads
	opts.FixedStealFull = u.fixed.StealFull
	return ilan.MustNew(opts)
}

// exec runs the unit through the cache, stores its sample in the unit's
// slot, and returns what the tracker publishes.
func (u *unit) exec() (*obs.Snapshot, *obs.AttrSnapshot, error) {
	if u.benches != nil {
		s, err := u.runCoRun()
		*u.multi = s
		return s.Obs, nil, err
	}
	s, err := u.runSolo()
	*u.solo = s
	return s.Obs, s.Attr, err
}

// runSolo memoizes a solo or fixed unit.
func (u *unit) runSolo() (RunSample, error) {
	return memo(u.cfg.Cache, u.key, func() (RunSample, error) {
		s, _, err := u.simulate()
		return s, err
	})
}

// runCoRun memoizes a co-run unit.
func (u *unit) runCoRun() (MultiSample, error) {
	return memo(u.cfg.Cache, u.key, func() (MultiSample, error) {
		_, s, err := u.simulate()
		return s, err
	})
}

// simulate runs the unit uncached on a fresh machine. Co-run units fill
// the MultiSample, the others the RunSample.
func (u *unit) simulate() (RunSample, MultiSample, error) {
	cfg := &u.cfg
	m := buildMachine(*cfg, u.rep)
	// Programs are built before the runtime exists: both draw on the
	// machine, and that order is part of every pinned output.
	var prog *taskrt.Program
	var w *taskrt.Workload
	if u.benches != nil {
		w = workloads.CoRunWorkload(m, u.benches, cfg.Class, cfg.Multi.ArrivalSpreadSec)
	} else {
		prog = u.bench.Build(m, cfg.Class)
	}
	rt := taskrt.New(m, u.scheduler(), taskrt.DefaultCosts())
	var run *obs.Run
	if cfg.obsEnabled() {
		run = obs.NewRun(obs.Options{TraceDecisions: cfg.TraceDecisions, RingCap: cfg.DecisionCap})
		rt.SetObs(run)
	}
	var trace *taskrt.Trace
	if cfg.TraceTasks && u.rep == 0 {
		trace = rt.EnableTracing()
	}
	if cfg.Attr {
		rt.EnableAttr()
	}

	var s RunSample
	var ms MultiSample
	if w != nil {
		res, err := rt.RunWorkload(w)
		if err != nil {
			return s, ms, fmt.Errorf("harness: %s rep %d: %w", u.name(), u.rep, err)
		}
		ms = MultiSample{ElapsedSec: float64(res.Elapsed), Trace: trace}
		for i, pr := range res.Programs {
			ms.Programs = append(ms.Programs, ProgramSample{
				Program:     pr.Name,
				Bench:       u.benches[i].Name,
				ArrivalSec:  pr.ArrivalSec,
				StartSec:    pr.StartSec,
				MakespanSec: pr.MakespanSec,
				Tasks:       pr.TasksExecuted,
			})
		}
	} else {
		res, err := rt.RunProgram(prog)
		if err != nil {
			return s, ms, fmt.Errorf("harness: %s rep %d: %w", u.name(), u.rep, err)
		}
		s = RunSample{
			ElapsedSec:      float64(res.Elapsed),
			OverheadSec:     res.OverheadSec,
			WeightedThreads: res.WeightedAvgThreads,
			StealsLocal:     res.StealsLocal,
			StealsRemote:    res.StealsRemote,
			Tasks:           res.TasksExecuted,
			Trace:           trace,
		}
	}
	if run != nil {
		rt.FinalizeObs()
		snap := run.Snapshot()
		for i := range snap.Decisions {
			snap.Decisions[i].Rep = u.rep
		}
		s.Obs, ms.Obs = snap, snap
	}
	s.Attr = rt.AttrSnapshot()
	return s, ms, nil
}

// topoSpec is the topology a campaign runs on: the zero spec selects
// Zen4Vera.
func (cfg Config) topoSpec() topology.Spec {
	if cfg.Topo.Sockets == 0 {
		return topology.Zen4Vera()
	}
	return cfg.Topo
}

// buildMachine constructs the fresh simulated machine one repetition runs
// on: per-rep seed derivation, model overrides, and disturbance injection.
// Every unit builds its machine here, so a given (cfg, rep) always means
// the same machine.
func buildMachine(cfg Config, rep int) *machine.Machine {
	mc := machine.Config{
		Topo:         topology.MustNew(cfg.topoSpec()),
		Seed:         cfg.Seed ^ (uint64(rep)+1)*0x9e3779b97f4a7c15,
		Noise:        cfg.Noise,
		Alpha:        -1,
		ControllerBW: cfg.ControllerBW,
		LinkBW:       cfg.LinkBW,
		CoreStreamBW: cfg.CoreStreamBW,
	}
	if cfg.Alpha != nil {
		mc.Alpha = *cfg.Alpha
	}
	if cfg.Beta != nil {
		mc.Beta = *cfg.Beta
		if *cfg.Beta == 0 {
			mc.Beta = -1 // machine.Config uses negative to force zero
		}
	}
	m := machine.New(mc)
	if d := cfg.Disturb; d != nil {
		slow, load := d.Slowdown, d.MemLoad
		if slow == 0 {
			slow = 0.6
		}
		if load == 0 {
			load = 8
		}
		m.DisturbNode(d.Node, slow, load)
	}
	return m
}

// campaign is a list of units plus the tracker cells they report into.
type campaign struct {
	cells []CellDecl
	units []unit
}

// soloCell declares a tracker cell and queues one copy of u per
// repetition, each filling its slot of the returned cell.
func (cp *campaign) soloCell(name string, u unit) *Cell {
	c := &Cell{Bench: u.bench.Name, Kind: u.kind, Samples: make([]RunSample, u.cfg.Reps)}
	u.cell = len(cp.cells)
	cp.cells = append(cp.cells, CellDecl{Name: name, Units: len(c.Samples)})
	for rep := range c.Samples {
		u.rep, u.solo = rep, &c.Samples[rep]
		cp.units = append(cp.units, u)
	}
	return c
}

// coRunCell is soloCell for a co-run unit.
func (cp *campaign) coRunCell(name string, u unit) *MultiCell {
	c := &MultiCell{Kind: u.kind, Samples: make([]MultiSample, u.cfg.Reps)}
	u.cell = len(cp.cells)
	cp.cells = append(cp.cells, CellDecl{Name: name, Units: len(c.Samples)})
	for rep := range c.Samples {
		u.rep, u.multi = rep, &c.Samples[rep]
		cp.units = append(cp.units, u)
	}
	return c
}

// matrix queues one solo cell per (benchmark, kind) pair and returns the
// matrix the units fill. progress, if non-nil, is called as each cell is
// queued.
func (cp *campaign) matrix(benches []workloads.Benchmark, kinds []Kind, cfg Config,
	progress func(bench string, k Kind)) *Matrix {
	mx := &Matrix{cells: make(map[string]map[Kind]*Cell)}
	for _, b := range benches {
		mx.Benches = append(mx.Benches, b.Name)
		mx.cells[b.Name] = make(map[Kind]*Cell)
		for _, k := range kinds {
			if progress != nil {
				progress(b.Name, k)
			}
			mx.cells[b.Name][k] = cp.soloCell(b.Name+"/"+k.String(), soloUnit(b, k, cfg))
		}
	}
	return mx
}

// run executes the campaign. The units fan out across one cfg.Jobs-bounded
// pool and write their samples by index, so the cells are identical to a
// sequential run. done, when non-nil, is called from the pool workers
// after each unit that succeeds.
func (cp *campaign) run(cfg Config, label string, done func(*unit)) error {
	cfg.Track.Begin(label, cp.cells)
	cfg.Track.AttachCache(cfg.Cache)
	err := ForEachCancel(cfg.Jobs, len(cp.units), cfg.Cancel, func(i int) error {
		u := &cp.units[i]
		snap, attr, err := u.exec()
		cfg.Track.UnitDone(u.cell, u.rep, snap, attr, err)
		if err == nil && done != nil {
			done(u)
		}
		return err
	})
	cfg.Track.Finish(err)
	return err
}
