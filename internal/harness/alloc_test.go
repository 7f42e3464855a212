package harness

import (
	"runtime"
	"testing"

	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/workloads"
)

// unitAllocs measures one call of f on a single thread after a warm-up
// call, and returns its allocation count and bytes.
func unitAllocs(t *testing.T, f func() error) (count, bytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := f(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// budgetConfig is a test-class unit with the cache and every observer
// off: what remains is the simulation itself.
func budgetConfig() Config {
	cfg := DefaultConfig()
	cfg.Class = workloads.ClassTest
	return cfg
}

func checkBudget(t *testing.T, what string, count, bytes, maxCount, maxBytes uint64) {
	t.Helper()
	t.Logf("%s: %d allocs, %d B (ceilings %d allocs, %d B)", what, count, bytes, maxCount, maxBytes)
	if count > maxCount || bytes > maxBytes {
		t.Fatalf("%s allocates %d times and %d B, over its ceilings of %d and %d B",
			what, count, bytes, maxCount, maxBytes)
	}
}

// TestRunOneAllocBudget caps the allocations of a whole solo unit: a
// test-class CG run under ILAN, from machine construction to the sample.
// Every loop after ILAN's search settles runs allocation-free, so the
// count is set-up plus the search, independent of the timestep count.
// The ceilings are the measured values plus about 10%: map growth differs
// between Go releases, so they are not exact. Ceilings only go down.
func TestRunOneAllocBudget(t *testing.T) {
	b, _ := workloads.ByName("CG")
	cfg := budgetConfig()
	count, bytes := unitAllocs(t, func() error {
		_, err := RunOne(b, KindILAN, cfg, 0)
		return err
	})
	checkBudget(t, "CG/ilan unit", count, bytes, 855, 153_500)
}

// TestRunMultiOneAllocBudget is TestRunOneAllocBudget for a co-run unit:
// test-class CG and FT under ILAN sharing the machine.
func TestRunMultiOneAllocBudget(t *testing.T) {
	cg, _ := workloads.ByName("CG")
	ft, _ := workloads.ByName("FT")
	cfg := budgetConfig()
	cfg.Multi = &CoRun{Benches: []string{"CG", "FT"}}
	count, bytes := unitAllocs(t, func() error {
		_, err := RunMultiOne([]workloads.Benchmark{cg, ft}, KindILAN, cfg, 0)
		return err
	})
	checkBudget(t, "CG+FT/ilan co-run unit", count, bytes, 1260, 223_000)
}

// work is what one unit costs the simulator, in counts that depend only on
// the inputs and not on the host.
type work struct {
	events      uint64 // engine events fired
	reschedules uint64 // in-place moves of pending completion events
	rateEvals   uint64 // remaining-time evaluations (one per refresh)
	l3Lookups   uint64 // block-granular L3 lookups, hits plus misses
	steals      int    // steal attempts, summed over programs
}

// unitWork runs a solo unit (one benchmark) or a co-run unit (several) of
// cfg at repetition 0 on the machine RunOne and RunMultiOne build, and
// returns its work counts.
func unitWork(t *testing.T, cfg Config, benches ...workloads.Benchmark) work {
	t.Helper()
	m := buildMachine(cfg, 0)
	var w work
	if len(benches) == 1 {
		prog := benches[0].Build(m, cfg.Class)
		res, err := taskrt.New(m, NewScheduler(KindILAN), taskrt.DefaultCosts()).RunProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		w.steals = res.StealAttempts
	} else {
		wl := workloads.CoRunWorkload(m, benches, cfg.Class, cfg.Multi.ArrivalSpreadSec)
		res, err := taskrt.New(m, NewScheduler(KindILAN), taskrt.DefaultCosts()).RunWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Programs {
			w.steals += p.StealAttempts
		}
	}
	eng := m.Engine()
	hits, misses := m.Caches().Stats()
	w.events, w.reschedules, w.rateEvals, w.l3Lookups = eng.Processed(), eng.Rescheduled(), m.RateEvaluations(), hits+misses
	return w
}

// TestWorkBudget pins the exact work of the two units the allocation
// budgets above measure. Host time is too noisy to gate, but these counts
// are deterministic: a change that makes the simulator cheaper per event
// keeps every one of them, and one that moves any of them (a refresh that
// re-rates tasks whose rates did not change, a cache model that looks up
// more blocks) must update the budget and say why.
func TestWorkBudget(t *testing.T) {
	cg, _ := workloads.ByName("CG")
	ft, _ := workloads.ByName("FT")
	cfg := budgetConfig()
	t.Run("CG", func(t *testing.T) {
		checkWork(t, unitWork(t, cfg, cg), work{
			events: 9132, reschedules: 31962, rateEvals: 34426, l3Lookups: 104962, steals: 5959})
	})
	t.Run("CG+FT", func(t *testing.T) {
		cfg.Multi = &CoRun{Benches: []string{"CG", "FT"}}
		checkWork(t, unitWork(t, cfg, cg, ft), work{
			events: 20230, reschedules: 220272, rateEvals: 227856, l3Lookups: 439722, steals: 11233})
	})
}

func checkWork(t *testing.T, got, want work) {
	t.Helper()
	t.Logf("%+v", got)
	if got != want {
		t.Errorf("work = %+v, want %+v", got, want)
	}
}
