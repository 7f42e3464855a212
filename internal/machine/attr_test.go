package machine

import (
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestAttrComputeOnlyTask: a compute-only task on a noiseless machine is
// pure ideal compute — every other term must be exactly zero and the
// residual must close within tolerance.
func TestAttrComputeOnlyTask(t *testing.T) {
	m := quietMachine(t)
	m.EnableAttr()
	m.EnableAttr() // idempotent, like EnableObs
	var a obs.TaskAttr
	m.Exec(0, 2.5, nil, func() { a = m.LastTaskAttr() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if a.Tasks != 1 || a.IdealComputeSec != 2.5 {
		t.Fatalf("Tasks = %d, IdealComputeSec = %g; want one task of 2.5", a.Tasks, a.IdealComputeSec)
	}
	if a.CoreSpeedSec != 0 || a.IdealMemorySec != 0 || a.LocalitySec != 0 || a.InterferenceSec != 0 {
		t.Fatalf("compute-only task has nonzero non-compute terms: %+v", a)
	}
	if tol := obs.AttrTolerance(a.ElapsedSec); math.Abs(a.ResidualSec) > tol {
		t.Fatalf("residual %g exceeds tolerance %g", a.ResidualSec, tol)
	}
}

// TestAttrRemotePagesChargedToLocality: a lone memory task whose pages live
// on a cross-socket node pays its extra time as locality penalty, not as
// interference — nothing else is running, so the interference stall must be
// ~zero while locality is strictly positive.
func TestAttrRemotePagesChargedToLocality(t *testing.T) {
	m := quietMachine(t)
	m.EnableAttr()
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceOnNode(2) // cross-socket from core 0
	var a obs.TaskAttr
	m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: 10 * memsys.BlockSize, Pattern: memsys.Stream}},
		func() { a = m.LastTaskAttr() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if a.IdealMemorySec <= 0 {
		t.Fatalf("IdealMemorySec = %g, want > 0 for a memory task", a.IdealMemorySec)
	}
	if a.LocalitySec <= 0 {
		t.Fatalf("LocalitySec = %g, want > 0 for cross-socket pages", a.LocalitySec)
	}
	tol := obs.AttrTolerance(a.ElapsedSec)
	if math.Abs(a.InterferenceSec) > tol {
		t.Fatalf("lone task charged %g interference, want ~0", a.InterferenceSec)
	}
	if math.Abs(a.ResidualSec) > tol {
		t.Fatalf("residual %g exceeds tolerance %g", a.ResidualSec, tol)
	}
}

// TestAttrContentionChargedToInterference: co-runners sharing a controller
// pay interference stall; with node-local pages the locality term stays at
// zero (the counterfactual local controller IS the actual one).
func TestAttrContentionChargedToInterference(t *testing.T) {
	m := quietMachine(t)
	m.EnableAttr()
	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceOnNode(0)
	var samples []obs.TaskAttr
	for c := 0; c < 4; c++ {
		off := int64(c) * 64 * memsys.BlockSize
		m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: 20 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { samples = append(samples, m.LastTaskAttr()) })
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	for i, a := range samples {
		if a.InterferenceSec <= 0 {
			t.Fatalf("task %d: InterferenceSec = %g, want > 0 under 4-way contention", i, a.InterferenceSec)
		}
		tol := obs.AttrTolerance(a.ElapsedSec)
		// Cores 0-3 sit on node 0 in the small topology, so every access
		// is node-local and the locality counterfactual coincides with
		// reality.
		if math.Abs(a.LocalitySec) > tol {
			t.Fatalf("task %d: LocalitySec = %g for node-local pages, want 0", i, a.LocalitySec)
		}
		if math.Abs(a.ResidualSec) > tol {
			t.Fatalf("task %d: residual %g exceeds tolerance %g", i, a.ResidualSec, tol)
		}
	}
	// The machine's per-resource interference split must re-sum to the
	// total interference: these tasks bottleneck on node 0's controller or
	// the core port, nowhere else.
	snap := &obs.AttrSnapshot{}
	m.FillAttr(snap)
	var split float64
	for _, v := range snap.Interference {
		split += v
	}
	if d := math.Abs(split - snap.Task.InterferenceSec); d > obs.AttrTolerance(snap.Task.InterferenceSec) {
		t.Fatalf("per-resource interference sums to %g, total is %g", split, snap.Task.InterferenceSec)
	}
}

// TestAttrConservationAllTermsNonzero is the dropped-term detector: a
// scenario where every single term of the decomposition is nonzero — noisy
// core speeds, jittered compute, remote contended pages — so that dropping
// (or double-counting) ANY term shifts the measured elapsed time away from
// the term sum and inflates the residual past tolerance. This is the unit
// counterpart of the simcheck fuzz invariant.
func TestAttrConservationAllTermsNonzero(t *testing.T) {
	m := New(Config{
		Topo: topology.MustNew(topology.SmallTest()),
		Seed: 11,
		Noise: NoiseConfig{
			Enabled:         true,
			CoreSpeedSigma:  0.2,
			TaskJitterSigma: 0.2,
		},
		Alpha: -1,
	})
	m.EnableAttr()
	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceOnNode(2) // cross-socket: locality term nonzero
	var samples []obs.TaskAttr
	for c := 0; c < 4; c++ {
		off := int64(c) * 64 * memsys.BlockSize
		m.Exec(c, 1e-3, []memsys.Access{{Region: r, Offset: off, Bytes: 20 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { samples = append(samples, m.LastTaskAttr()) })
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range samples {
		if a.IdealComputeSec <= 0 || a.IdealMemorySec <= 0 ||
			a.LocalitySec == 0 || a.InterferenceSec <= 0 || a.CoreSpeedSec == 0 {
			t.Fatalf("task %d: expected every term nonzero, got %+v", i, a)
		}
		tol := obs.AttrTolerance(a.ElapsedSec)
		if d := math.Abs(a.TermSum() - a.ElapsedSec); d > tol {
			t.Fatalf("task %d: terms sum to %.17g, elapsed %.17g (gap %g > tol %g)",
				i, a.TermSum(), a.ElapsedSec, d, tol)
		}
		if math.Abs(a.ResidualSec) > tol {
			t.Fatalf("task %d: residual %.17g exceeds tolerance %g — a decomposition term "+
				"was dropped or double-counted", i, a.ResidualSec, tol)
		}
	}
	// Run totals must be the exact sums of the per-task samples (same
	// accumulation order).
	total := m.TaskAttr()
	if total.Tasks != 4 {
		t.Fatalf("TaskAttr().Tasks = %d, want 4", total.Tasks)
	}
	var elapsed float64
	for _, a := range samples {
		elapsed += a.ElapsedSec
	}
	if d := math.Abs(total.ElapsedSec - elapsed); d > obs.AttrTolerance(elapsed) {
		t.Fatalf("accumulated ElapsedSec %g, samples sum to %g", total.ElapsedSec, elapsed)
	}
	if err := (&obs.AttrSnapshot{Runs: 1, Task: total}).CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAttrOutputNeutral: enabling attribution must not change a single
// observable of the run — completion times and counters are byte-identical
// with it on or off.
func TestAttrOutputNeutral(t *testing.T) {
	run := func(attr bool) (times []float64, counters Counters) {
		m := New(Config{
			Topo: topology.MustNew(topology.SmallTest()),
			Seed: 7,
			Noise: NoiseConfig{
				Enabled:         true,
				CoreSpeedSigma:  0.1,
				TaskJitterSigma: 0.1,
			},
		})
		if attr {
			m.EnableAttr()
		}
		r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
		r.PlaceOnNode(1)
		for c := 0; c < 4; c++ {
			off := int64(c) * 64 * memsys.BlockSize
			m.Exec(c, 1e-3, []memsys.Access{{Region: r, Offset: off, Bytes: 20 * memsys.BlockSize, Pattern: memsys.Stream}},
				func() { times = append(times, float64(m.Engine().Now())) })
		}
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return times, m.Counters()
	}
	tOff, cOff := run(false)
	tOn, cOn := run(true)
	for i := range tOff {
		if tOff[i] != tOn[i] {
			t.Fatalf("completion %d moved with attribution on: %.17g vs %.17g", i, tOff[i], tOn[i])
		}
	}
	if cOff.ComputeSeconds != cOn.ComputeSeconds || cOff.MemorySeconds != cOn.MemorySeconds {
		t.Fatalf("counters moved with attribution on: %+v vs %+v", cOff, cOn)
	}
}

// TestMCUtilizationUsesRealizedBytes is the regression for
// the mc_utilization fix: under nonzero task jitter the physical traffic
// (RealizedBytes) differs from the pre-jitter service demand
// (ResourceBytes), and utilization must be computed from the former —
// utilization × elapsed × peak-BW must reproduce mc_bytes_total, and the
// demand counter must be exported separately. The old code divided demand
// bytes by elapsed × peak BW and fails both checks whenever jitter ≠ 1.
func TestMCUtilizationUsesRealizedBytes(t *testing.T) {
	m := New(Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  5,
		Noise: NoiseConfig{Enabled: true, TaskJitterSigma: 0.4},
	})
	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceOnNode(0)
	for c := 0; c < 4; c++ {
		off := int64(c) * 64 * memsys.BlockSize
		m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: 20 * memsys.BlockSize, Pattern: memsys.Stream}}, nil)
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := m.Engine().Now().Seconds()

	run := obs.NewRun(obs.Options{})
	m.FillObs(run)
	snap := run.Snapshot()
	node0 := obs.Label("node", 0)
	realized := snap.Counters["machine_mc_bytes_total"+node0]
	demand := snap.Counters["machine_mc_demand_bytes_total"+node0]
	util := snap.Gauges["machine_mc_utilization"+node0]
	if realized <= 0 || demand <= 0 {
		t.Fatalf("missing controller byte counters: realized=%g demand=%g", realized, demand)
	}
	// The test is only sensitive if jitter actually skewed the traffic.
	if realized == demand {
		t.Fatalf("realized == demand (%g) under jitter sigma 0.4; test lost its sensitivity", realized)
	}
	bw := m.Resources().ControllerBW
	got := util * elapsed * bw
	if math.Abs(got-realized) > 1e-6*realized {
		t.Fatalf("mc_utilization×elapsed×BW = %g, mc_bytes_total = %g — "+
			"utilization is not computed from realized traffic", got, realized)
	}
	if math.Abs(got-demand) < 1e-6*demand {
		t.Fatal("utilization reproduces the demand counter; it must use realized bytes")
	}
}

// TestMachineAttrEnabledAllocsZero pins the attribution overhead contract
// (DESIGN.md §14): the per-task accounting runs at Exec and completion on
// pooled state, so a memory task with attribution enabled allocates nothing
// in steady state.
func TestMachineAttrEnabledAllocsZero(t *testing.T) {
	m := quietMachine(t)
	m.EnableAttr()
	r := m.Memory().NewRegion("a", 1024*memsys.BlockSize)
	r.PlaceOnNode(1)
	eng := m.Engine()
	done := func() {}
	var off int64
	allocs := testing.AllocsPerRun(100, func() {
		m.Exec(0, 1e-7, []memsys.Access{{Region: r, Offset: off % (512 * memsys.BlockSize), Bytes: 4 * memsys.BlockSize, Pattern: memsys.Stream}}, done)
		off += 4 * memsys.BlockSize
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per memory Exec with attribution enabled = %g, want 0", allocs)
	}
}
