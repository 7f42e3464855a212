package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/workloads"
)

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Begin("x", []CellDecl{{Name: "a", Units: 1}})
	tr.UnitDone(0, 0, nil, nil, nil)
	tr.Finish(nil)
	if s := tr.Snapshot(); s.UnitsTotal != 0 || s.ETASec != -1 {
		t.Fatalf("nil tracker snapshot = %+v", s)
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracker returned a metrics snapshot")
	}
	ch, cancel := tr.Subscribe()
	cancel()
	if _, open := <-ch; open {
		t.Fatal("nil tracker subscription channel not closed")
	}
}

func TestTrackerSnapshotAndCells(t *testing.T) {
	tr := NewTracker()
	tr.Begin("campaign", []CellDecl{
		{Name: "CG/baseline", Units: 2},
		{Name: "CG/ilan", Units: 2},
	})
	s := tr.Snapshot()
	if s.UnitsTotal != 4 || s.UnitsDone != 0 || s.CellsTotal != 2 || s.CellsDone != 0 {
		t.Fatalf("initial snapshot = %+v", s)
	}
	if s.ETASec != -1 {
		t.Fatalf("ETA before any unit = %g, want -1", s.ETASec)
	}
	tr.UnitDone(0, 0, nil, nil, nil)
	tr.UnitDone(0, 1, nil, nil, nil)
	tr.UnitDone(1, 0, nil, nil, nil)
	s = tr.Snapshot()
	if s.UnitsDone != 3 || s.CellsDone != 1 {
		t.Fatalf("mid snapshot = %+v", s)
	}
	if s.Cells[0].RepsDone != 2 || s.Cells[1].RepsDone != 1 {
		t.Fatalf("cell counts = %+v", s.Cells)
	}
	if s.ETASec < 0 {
		t.Fatalf("ETA with units done = %g, want >= 0", s.ETASec)
	}
	tr.UnitDone(1, 1, nil, nil, nil)
	tr.Finish(nil)
	s = tr.Snapshot()
	if !s.Finished || s.CellsDone != 2 || s.UnitsDone != 4 || s.ETASec != 0 {
		t.Fatalf("final snapshot = %+v", s)
	}
}

func TestTrackerMergedObsMonotone(t *testing.T) {
	mkSnap := func(v float64) *obs.Snapshot {
		run := obs.NewRun(obs.Options{})
		run.Add("taskrt_steals_local_total", v)
		return run.Snapshot()
	}
	tr := NewTracker()
	tr.Begin("c", []CellDecl{{Name: "a", Units: 3}})
	if m := tr.Metrics(); m.Runs != 0 || m.Counters["ilan_campaign_units_total"] != 3 {
		t.Fatalf("before any rep: runs = %d, units_total = %g; want 0 merged runs and the campaign series",
			m.Runs, m.Counters["ilan_campaign_units_total"])
	}
	if _, ok := tr.Metrics().Counters["taskrt_steals_local_total"]; ok {
		t.Fatal("merged rep counter before any rep")
	}
	prev := 0.0
	for i, v := range []float64{3, 5, 7} {
		tr.UnitDone(0, i, mkSnap(v), nil, nil)
		m := tr.Metrics()
		if m.Runs != i+1 || m.Counters["ilan_campaign_units_done"] != float64(i+1) {
			t.Fatalf("after rep %d: runs = %d, units_done = %g", i, m.Runs, m.Counters["ilan_campaign_units_done"])
		}
		got := m.Counters["taskrt_steals_local_total"]
		if got < prev {
			t.Fatalf("merged counter regressed: %g -> %g", prev, got)
		}
		prev = got
	}
	if prev != 15 {
		t.Fatalf("merged counter = %g, want 15", prev)
	}
}

func TestTrackerEvents(t *testing.T) {
	tr := NewTracker()
	ch, cancel := tr.Subscribe()
	defer cancel()
	tr.Begin("c", []CellDecl{{Name: "a", Units: 1}})

	run := obs.NewRun(obs.Options{TraceDecisions: true, RingCap: 8})
	run.Decisions().Record(obs.Decision{LoopID: 1, K: 1, Phase: "explore", Threads: 4})
	run.Decisions().Record(obs.Decision{LoopID: 1, K: 2, Phase: "explore", Threads: 8})
	run.Decisions().Record(obs.Decision{LoopID: 1, K: 3, Phase: "settled", Threads: 8})
	tr.UnitDone(0, 0, run.Snapshot(), nil, nil)
	tr.Finish(nil)

	var types []string
	for len(types) < 4 {
		select {
		case ev := <-ch:
			types = append(types, ev.Type)
		case <-time.After(time.Second):
			t.Fatalf("timed out; events so far: %v", types)
		}
	}
	joined := strings.Join(types, ",")
	// Two phase events (first decision + explore->settled), the cell
	// completion, then the terminal event.
	if joined != "phase,phase,cell,done" {
		t.Fatalf("event sequence = %s", joined)
	}
}

// panicBench is a benchmark whose Build panics on selected invocations —
// the pool's recovery path under a realistic campaign.
func panicBench(t *testing.T, panicOn func(n int64) bool) workloads.Benchmark {
	t.Helper()
	base, ok := workloads.ByName("Matmul")
	if !ok {
		t.Fatal("Matmul benchmark missing")
	}
	var calls atomic.Int64
	return workloads.Benchmark{
		Name: "Panicky",
		Build: func(m *machine.Machine, cls workloads.Class) *taskrt.Program {
			if panicOn(calls.Add(1)) {
				panic("injected benchmark failure")
			}
			return base.Build(m, cls)
		},
	}
}

// TestSweepProgressReachesTotalOnPanic is the -jobs > 1 accounting
// contract: a sampler watching the tracker during a sweep whose reps
// panic must see monotone counts that still reach the total once the
// campaign aborts, with the failure reported via Err/UnitsFailed rather
// than a stuck counter.
func TestSweepProgressReachesTotalOnPanic(t *testing.T) {
	bench := panicBench(t, func(n int64) bool { return n == 3 })
	cfg := testConfig()
	cfg.Jobs = 4
	tr := NewTracker()
	cfg.Track = tr

	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		defer close(sampled)
		var prevDone int64
		prevCells := make(map[string]int)
		for {
			s := tr.Snapshot()
			if s.UnitsDone < prevDone {
				sampled <- fmt.Errorf("units_done regressed: %d -> %d", prevDone, s.UnitsDone)
				return
			}
			prevDone = s.UnitsDone
			for _, c := range s.Cells {
				if c.RepsDone < prevCells[c.Name] {
					sampled <- fmt.Errorf("cell %s reps regressed: %d -> %d",
						c.Name, prevCells[c.Name], c.RepsDone)
					return
				}
				prevCells[c.Name] = c.RepsDone
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	_, err := Sweep(bench, SweepBeta, []float64{0, 0.003}, cfg, nil)
	close(stop)
	if serr := <-sampled; serr != nil {
		t.Fatal(serr)
	}
	if err == nil {
		t.Fatal("sweep with a panicking rep returned no error")
	}
	if !strings.Contains(err.Error(), "injected benchmark failure") {
		t.Fatalf("error does not carry the panic: %v", err)
	}

	s := tr.Snapshot()
	if !s.Finished {
		t.Fatal("tracker not finished after sweep returned")
	}
	if s.UnitsDone != s.UnitsTotal {
		t.Fatalf("units_done = %d, want total %d even after abort", s.UnitsDone, s.UnitsTotal)
	}
	if s.CellsDone != s.CellsTotal {
		t.Fatalf("cells_done = %d, want total %d even after abort", s.CellsDone, s.CellsTotal)
	}
	if s.UnitsFailed == 0 {
		t.Fatal("no failed units recorded")
	}
	if s.Err == "" {
		t.Fatal("tracker error message empty after failed campaign")
	}
}

// TestTrackerLateUnitDoneDropped is the straggler-publish regression test:
// a worker finishing a rep after Finish already force-completed the
// counters (the pool stops dispatching on first failure, then the campaign
// entry point calls Finish) must not double-count progress units — done
// counts stay at the declared totals and the late snapshot is dropped.
func TestTrackerLateUnitDoneDropped(t *testing.T) {
	tr := NewTracker()
	tr.Begin("c", []CellDecl{{Name: "a", Units: 2}})
	tr.UnitDone(0, 0, nil, nil, nil)
	tr.Finish(fmt.Errorf("rep 1 panicked"))

	run := obs.NewRun(obs.Options{})
	run.Add("taskrt_steals_local_total", 1)
	tr.UnitDone(0, 1, run.Snapshot(), nil, fmt.Errorf("late failure"))

	s := tr.Snapshot()
	if s.UnitsDone != s.UnitsTotal {
		t.Fatalf("units_done = %d after late publish, want %d", s.UnitsDone, s.UnitsTotal)
	}
	if s.Cells[0].RepsDone != s.Cells[0].RepsTotal {
		t.Fatalf("cell reps = %d after late publish, want %d",
			s.Cells[0].RepsDone, s.Cells[0].RepsTotal)
	}
	if s.UnitsFailed != 1 {
		t.Fatalf("units_failed = %d, want 1 (the late unit must not count)", s.UnitsFailed)
	}
	if m := tr.Metrics(); m.Runs != 0 || m.Counters["taskrt_steals_local_total"] != 0 {
		t.Fatalf("late snapshot merged into a finished campaign: %+v", m)
	}
}

// TestTrackerConcurrentUnitDoneFinishBounded races many publishers against
// Finish: whatever the interleaving, counters must end exactly at the
// declared totals, never past them.
func TestTrackerConcurrentUnitDoneFinishBounded(t *testing.T) {
	for round := 0; round < 20; round++ {
		tr := NewTracker()
		const units = 8
		tr.Begin("c", []CellDecl{{Name: "a", Units: units}})
		var wg sync.WaitGroup
		for i := 0; i < units; i++ {
			wg.Add(1)
			go func(rep int) {
				defer wg.Done()
				tr.UnitDone(0, rep, nil, nil, nil)
			}(i)
		}
		tr.Finish(fmt.Errorf("abort"))
		wg.Wait()
		s := tr.Snapshot()
		if s.UnitsDone != units || s.Cells[0].RepsDone != units {
			t.Fatalf("round %d: done = %d (cell %d), want exactly %d",
				round, s.UnitsDone, s.Cells[0].RepsDone, units)
		}
	}
}

// TestForEachPanicLeaksNoWorkers checks the pool's abort path sheds its
// worker goroutines: after a campaign whose reps panic, the goroutine
// count returns to its pre-campaign level.
func TestForEachPanicLeaksNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	err := ForEach(8, 64, func(i int) error {
		if i%5 == 3 {
			panic(fmt.Sprintf("injected panic at %d", i))
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	// Workers exit once the index channel closes; give stragglers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines: %d before, %d after panicking campaign", before, got)
	}
}

// TestSweepPanicAfterFinishScenario drives the full stack: a campaign
// aborts on a panicking rep while other reps are still in flight, and the
// tracker's terminal snapshot must stay exactly at its totals (the
// in-flight reps' late publishes are the straggler path).
func TestSweepPanicAfterFinishScenario(t *testing.T) {
	bench := panicBench(t, func(n int64) bool { return n == 1 })
	cfg := testConfig()
	cfg.Jobs = 4
	cfg.Reps = 4
	tr := NewTracker()
	cfg.Track = tr
	_, err := Sweep(bench, SweepBeta, []float64{0, 0.003}, cfg, nil)
	if err == nil {
		t.Fatal("sweep with immediate panic returned no error")
	}
	s := tr.Snapshot()
	if s.UnitsDone != s.UnitsTotal {
		t.Fatalf("units_done = %d, want exactly %d", s.UnitsDone, s.UnitsTotal)
	}
	for _, c := range s.Cells {
		if c.RepsDone != c.RepsTotal {
			t.Fatalf("cell %s reps = %d, want exactly %d", c.Name, c.RepsDone, c.RepsTotal)
		}
	}
}

// TestRunProgressParallel drives a real (non-failing) campaign under
// Jobs > 1 and checks the terminal accounting plus per-cell totals.
func TestRunProgressParallel(t *testing.T) {
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	cfg := testConfig()
	cfg.Jobs = 4
	cfg.Reps = 3
	tr := NewTracker()
	cfg.Track = tr
	if _, err := Run(benches, []Kind{KindBaseline, KindILAN}, cfg, nil); err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	if !s.Finished || s.Err != "" || s.UnitsFailed != 0 {
		t.Fatalf("terminal snapshot = %+v", s)
	}
	if s.UnitsTotal != 6 || s.UnitsDone != 6 || s.CellsDone != 2 {
		t.Fatalf("accounting = %+v", s)
	}
	for _, c := range s.Cells {
		if c.RepsDone != 3 || c.RepsTotal != 3 {
			t.Fatalf("cell %s counts = %d/%d", c.Name, c.RepsDone, c.RepsTotal)
		}
	}
}
