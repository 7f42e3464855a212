package machine

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/obs"
)

// TestFillObsExportsMachineCounters drives concurrent memory tasks through
// a quiet machine with observability enabled and checks the exported
// metrics directly: controller bytes match the counters, utilization is a
// sane fraction, the load-integral queue depth is positive while tasks
// overlap, and per-CCD L3 stats sum to the global cache stats.
func TestFillObsExportsMachineCounters(t *testing.T) {
	m := quietMachine(t)
	m.EnableObs()
	m.EnableObs() // idempotent: second call must not reset the integral

	r := m.Memory().NewRegion("a", 256*memsys.BlockSize)
	r.PlaceOnNode(0)
	// Four overlapping streams on node 0's controller: load > 1 for most
	// of the run, so the time-weighted queue depth must exceed zero.
	for c := 0; c < 4; c++ {
		off := int64(c) * 32 * memsys.BlockSize
		m.Exec(c, 0, []memsys.Access{{Region: r, Offset: off, Bytes: 16 * memsys.BlockSize, Pattern: memsys.Stream}}, nil)
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}

	run := obs.NewRun(obs.Options{})
	m.FillObs(run)
	snap := run.Snapshot()

	node0 := obs.Label("node", 0)
	bytes := snap.Counters["machine_mc_bytes_total"+node0]
	if bytes != m.counters.ResourceBytes[0] {
		t.Fatalf("mc_bytes_total%s = %g, counters say %g", node0, bytes, m.counters.ResourceBytes[0])
	}
	if bytes <= 0 {
		t.Fatal("no controller bytes recorded")
	}
	util := snap.Gauges["machine_mc_utilization"+node0]
	if util <= 0 || util > 1 {
		t.Fatalf("mc_utilization%s = %g, want in (0, 1]", node0, util)
	}
	qd := snap.Gauges["machine_mc_queue_depth"+node0]
	if qd <= 0 {
		t.Fatalf("mc_queue_depth%s = %g, want > 0 for overlapping streams", node0, qd)
	}

	var ccdHits, ccdMisses uint64
	for ccd := 0; ccd < m.caches.NumCCDs(); ccd++ {
		h, mi := m.caches.CCDStats(ccd)
		ccdHits += h
		ccdMisses += mi
	}
	hits, misses := m.caches.Stats()
	if ccdHits != hits || ccdMisses != misses {
		t.Fatalf("per-CCD stats (%d hits, %d misses) do not sum to global (%d, %d)",
			ccdHits, ccdMisses, hits, misses)
	}
	if ccdHits+ccdMisses == 0 {
		t.Fatal("block-granular streams produced no L3 touches")
	}

	if got := snap.Counters["machine_tasks_total"]; got != 4 {
		t.Fatalf("machine_tasks_total = %g, want 4", got)
	}
}

// TestFillObsNilRegistryAndDisturb: FillObs(nil) is a no-op, and the
// DisturbNode load mutation must go through the same obs accounting
// without corrupting the integral.
func TestFillObsNilRegistryAndDisturb(t *testing.T) {
	m := quietMachine(t)
	m.EnableObs()
	m.FillObs(nil) // must not panic
	m.DisturbNode(0, 0.2, 2.0)
	m.Exec(0, 1e-3, nil, nil)
	if err := m.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun(obs.Options{})
	m.FillObs(run)
	snap := run.Snapshot()
	node0 := obs.Label("node", 0)
	if qd := snap.Gauges["machine_mc_queue_depth"+node0]; qd <= 0 {
		t.Fatalf("queue depth %g under a sustained interferer, want > 0", qd)
	}
}

// TestMachineExecObsEnabledAllocsZero pins the enabled-path cost on the
// machine side: the load-integral accounting (obsAccumLoad) runs inside
// the fluid-task hot path, so it must not allocate — compute-only tasks
// on a warmed machine stay at zero allocations with obs on.
func TestMachineExecObsEnabledAllocsZero(t *testing.T) {
	m := quietMachine(t)
	m.EnableObs()
	eng := m.Engine()
	done := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		m.Exec(0, 1e-7, nil, done)
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per compute-only Exec with obs enabled = %g, want 0", allocs)
	}
}
