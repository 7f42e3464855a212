package harness

import (
	"runtime"
	"testing"

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
	checkBudget(t, "CG/ilan unit", count, bytes, 1200, 192_000)
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
	checkBudget(t, "CG+FT/ilan co-run unit", count, bytes, 1680, 273_000)
}
