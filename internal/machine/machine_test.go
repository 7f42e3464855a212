package machine

import (
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sim"
	"github.com/ilan-sched/ilan/internal/topology"
)

func quietMachine(t *testing.T) *Machine {
	t.Helper()
	return New(Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  1,
		Noise: NoiseConfig{Enabled: false},
		Alpha: -1,
	})
}

func TestComputeOnlyTaskDuration(t *testing.T) {
	m := quietMachine(t)
	var finished sim.Time = -1
	m.Exec(0, 2.5, nil, func() { finished = m.Engine().Now() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(finished)-2.5) > 1e-9 {
		t.Fatalf("compute-only task finished at %v, want 2.5", finished)
	}
}

func TestMemoryTaskAloneIsCoreBandwidthBound(t *testing.T) {
	m := quietMachine(t)
	r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
	r.PlaceOnNode(0)
	bytes := int64(10 * memsys.BlockSize)
	var finished sim.Time
	m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: bytes, Pattern: memsys.Stream}},
		func() { finished = m.Engine().Now() })
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	want := float64(bytes) / m.Resources().CoreStreamBW
	if math.Abs(float64(finished)-want) > want*1e-6 {
		t.Fatalf("lone memory task took %v, want %g", finished, want)
	}
}

func TestRemoteAccessSlowerThanLocal(t *testing.T) {
	runOne := func(node int) sim.Time {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 64*memsys.BlockSize)
		r.PlaceOnNode(node)
		var finished sim.Time
		m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: 10 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { finished = m.Engine().Now() })
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return finished
	}
	local := runOne(0)
	sameSocket := runOne(1)
	crossSocket := runOne(2)
	if !(local < sameSocket && sameSocket < crossSocket) {
		t.Fatalf("distance ordering violated: local=%v sameSocket=%v cross=%v",
			local, sameSocket, crossSocket)
	}
}

func TestContentionSlowsSharedController(t *testing.T) {
	// One memory-bound task alone vs the same task with 3 co-runners on
	// the same controller: the contended one must take longer.
	run := func(coRunners int) sim.Time {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
		r.PlaceOnNode(0)
		var finished sim.Time
		bytes := int64(20 * memsys.BlockSize)
		for c := 0; c <= coRunners; c++ {
			c := c
			off := int64(c) * 64 * memsys.BlockSize
			cb := func() {}
			if c == 0 {
				cb = func() { finished = m.Engine().Now() }
			}
			m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: bytes, Pattern: memsys.Stream}}, cb)
		}
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return finished
	}
	alone := run(0)
	contended := run(3)
	if contended <= alone {
		t.Fatalf("4-way contended task (%v) not slower than lone task (%v)", contended, alone)
	}
	// With 4 full-time streams on a 45 GB/s controller at alpha=0.05 and
	// beta=0.001, each stream gets ~9.7 GB/s vs the 14 GB/s core cap:
	// expect ~1.43x.
	ratio := float64(contended) / float64(alone)
	if ratio < 1.2 || ratio > 2.0 {
		t.Fatalf("contention ratio = %g, want ~1.43", ratio)
	}
}

func TestEqualTasksFinishTogetherUnderSharing(t *testing.T) {
	m := quietMachine(t)
	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceOnNode(0)
	var times []sim.Time
	for c := 0; c < 4; c++ {
		off := int64(c) * 64 * memsys.BlockSize
		m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: 20 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { times = append(times, m.Engine().Now()) })
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	for _, ti := range times[1:] {
		if math.Abs(float64(ti-times[0])) > 1e-9 {
			t.Fatalf("symmetric tasks finished at different times: %v", times)
		}
	}
}

func TestStaggeredStartRateRecomputation(t *testing.T) {
	// Task A starts alone; task B joins halfway; A must finish later than
	// it would alone but earlier than if B had started with it.
	duration := func(secondStart sim.Duration) sim.Time {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
		r.PlaceOnNode(0)
		var aDone sim.Time
		bytes := int64(40 * memsys.BlockSize)
		// Use 4 co-runner tasks so the controller is saturated.
		m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: bytes, Pattern: memsys.Stream}},
			func() { aDone = m.Engine().Now() })
		for c := 1; c < 4; c++ {
			c := c
			m.Engine().After(secondStart, func() {
				m.Exec(c, 0, []memsys.Access{{Region: r, Offset: int64(c) * 64 * memsys.BlockSize,
					Bytes: bytes, Pattern: memsys.Stream}}, func() {})
			})
		}
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return aDone
	}
	immediate := duration(0)
	late := duration(0.003) // co-runners join mid-flight (lone task takes ~6 ms)
	alone := func() sim.Time {
		m := quietMachine(t)
		r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
		r.PlaceOnNode(0)
		var aDone sim.Time
		m.Exec(0, 0, []memsys.Access{{Region: r, Offset: 0, Bytes: 40 * memsys.BlockSize, Pattern: memsys.Stream}},
			func() { aDone = m.Engine().Now() })
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return aDone
	}()
	if !(alone < late && late < immediate) {
		t.Fatalf("staggered ordering violated: alone=%v late=%v immediate=%v", alone, late, immediate)
	}
}

func TestExecOnBusyCorePanics(t *testing.T) {
	m := quietMachine(t)
	m.Exec(0, 1, nil, func() {})
	defer func() {
		if recover() == nil {
			t.Error("double Exec did not panic")
		}
	}()
	m.Exec(0, 1, nil, func() {})
}

func TestNegativeComputePanics(t *testing.T) {
	m := quietMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("negative compute did not panic")
		}
	}()
	m.Exec(0, -1, nil, func() {})
}

func TestBusyFlag(t *testing.T) {
	m := quietMachine(t)
	if m.Busy(0) {
		t.Fatal("fresh core busy")
	}
	m.Exec(0, 1, nil, func() {
		if m.Busy(0) {
			t.Error("core still busy inside completion callback")
		}
	})
	if !m.Busy(0) {
		t.Fatal("core not busy after Exec")
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChainedExecFromCallback(t *testing.T) {
	m := quietMachine(t)
	var finish sim.Time
	m.Exec(0, 1, nil, func() {
		m.Exec(0, 1, nil, func() { finish = m.Engine().Now() })
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(finish)-2) > 1e-9 {
		t.Fatalf("chained tasks finished at %v, want 2", finish)
	}
	if m.TasksStarted() != 2 {
		t.Fatalf("TasksStarted = %d, want 2", m.TasksStarted())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		m := New(Config{
			Topo:  topology.MustNew(topology.SmallTest()),
			Seed:  99,
			Noise: DefaultNoise(),
			Alpha: -1,
		})
		r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
		r.PlaceBlocked([]int{0, 1, 2, 3})
		var times []sim.Time
		for c := 0; c < m.Topology().NumCores(); c++ {
			off := int64(c) * 16 * memsys.BlockSize
			m.Exec(c, 0.01, []memsys.Access{{Region: r, Offset: off, Bytes: 4 * memsys.BlockSize, Pattern: memsys.Stream}},
				func() { times = append(times, m.Engine().Now()) })
		}
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesNoise(t *testing.T) {
	finish := func(seed uint64) sim.Time {
		m := New(Config{
			Topo:  topology.MustNew(topology.SmallTest()),
			Seed:  seed,
			Noise: DefaultNoise(),
			Alpha: -1,
		})
		var f sim.Time
		m.Exec(0, 1, nil, func() { f = m.Engine().Now() })
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	if finish(1) == finish(2) {
		t.Fatal("different seeds produced identical noisy durations")
	}
}

func TestNoiseDisabledMeansUnitSpeeds(t *testing.T) {
	m := quietMachine(t)
	for c := 0; c < m.Topology().NumCores(); c++ {
		if m.CoreSpeed(c) != 1 {
			t.Fatalf("CoreSpeed(%d) = %g with noise off", c, m.CoreSpeed(c))
		}
	}
}

func TestOutlierSlowsOneNode(t *testing.T) {
	m := New(Config{
		Topo: topology.MustNew(topology.SmallTest()),
		Seed: 5,
		Noise: NoiseConfig{
			Enabled:         true,
			OutlierProb:     1, // force an outlier
			OutlierSlowdown: 0.5,
		},
		Alpha: -1,
	})
	slowNodes := 0
	for n := 0; n < m.Topology().NumNodes(); n++ {
		slow := true
		for _, c := range m.Topology().CoresOfNode(n) {
			if m.CoreSpeed(c) > 0.6 {
				slow = false
			}
		}
		if slow {
			slowNodes++
		}
	}
	if slowNodes != 1 {
		t.Fatalf("outlier slowed %d nodes, want exactly 1", slowNodes)
	}
}

func TestCacheReuseSpeedsUpSecondTask(t *testing.T) {
	m := quietMachine(t)
	r := m.Memory().NewRegion("a", memsys.BlockSize)
	r.PlaceOnNode(0)
	acc := []memsys.Access{{Region: r, Offset: 0, Bytes: memsys.BlockSize, Pattern: memsys.Stream}}
	var first, second sim.Duration
	start2 := sim.Time(0)
	m.Exec(0, 0, acc, func() {
		first = m.Engine().Now()
		start2 = m.Engine().Now()
		m.Exec(0, 0, acc, func() { second = m.Engine().Now() - start2 })
	})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first/10 {
		t.Fatalf("cached rerun took %v vs cold %v; want >10x faster", second, first)
	}
}

func TestConfigOverrides(t *testing.T) {
	m := New(Config{
		Topo:         topology.MustNew(topology.SmallTest()),
		Noise:        NoiseConfig{},
		ControllerBW: 1e9,
		LinkBW:       2e9,
		CoreStreamBW: 3e9,
		Alpha:        0.5,
	})
	rs := m.Resources()
	if rs.ControllerBW != 1e9 || rs.LinkBW != 2e9 || rs.CoreStreamBW != 3e9 || rs.Alpha != 0.5 {
		t.Fatalf("overrides not applied: %+v", rs)
	}
}

func TestNilTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil topo) did not panic")
		}
	}()
	New(Config{})
}

func TestDisturbNodeValidation(t *testing.T) {
	m := quietMachine(t)
	cases := []func(){
		func() { m.DisturbNode(-1, 0.5, 1) },
		func() { m.DisturbNode(99, 0.5, 1) },
		func() { m.DisturbNode(0, 0, 1) },
		func() { m.DisturbNode(0, 1.5, 1) },
		func() { m.DisturbNode(0, 0.5, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid DisturbNode accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestDisturbNodeSlowsTasks(t *testing.T) {
	run := func(disturb bool) sim.Time {
		m := quietMachine(t)
		if disturb {
			m.DisturbNode(0, 0.5, 0)
		}
		var f sim.Time
		m.Exec(0, 1, nil, func() { f = m.Engine().Now() })
		if err := m.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	clean, slow := run(false), run(true)
	if math.Abs(float64(slow)-2*float64(clean)) > 1e-9 {
		t.Fatalf("0.5x slowdown gave %v vs clean %v", slow, clean)
	}
}

func TestDisturbedMachineStillQuiesces(t *testing.T) {
	m := quietMachine(t)
	m.DisturbNode(1, 0.8, 5)
	r := m.Memory().NewRegion("a", 8*memsys.BlockSize)
	r.PlaceOnNode(1)
	m.Exec(4, 0.001, []memsys.Access{{Region: r, Offset: 0, Bytes: 2 * memsys.BlockSize, Pattern: memsys.Stream}},
		func() {})
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Quiesced() {
		t.Fatal("machine with external load did not quiesce")
	}
}

func TestRNGAccessor(t *testing.T) {
	m := quietMachine(t)
	if m.RNG() == nil {
		t.Fatal("nil RNG")
	}
}
