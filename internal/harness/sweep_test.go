package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSweepBeta(t *testing.T) {
	b := mustBench(t, "CG")
	cfg := testConfig()
	cfg.Reps = 1
	points, err := Sweep(b, SweepBeta, []float64{0, 0.003}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for _, p := range points {
		if p.Speedup <= 0 || p.BaselineSec <= 0 || p.ILANSec <= 0 || p.Threads <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
	// Stronger contention must not make the baseline faster.
	if points[1].BaselineSec < points[0].BaselineSec {
		t.Fatalf("baseline got faster under higher beta: %+v", points)
	}
}

func TestSweepAllParams(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	cfg.Reps = 1
	for _, param := range []SweepParam{SweepAlpha, SweepBeta, SweepControllerBW, SweepCoreBW, SweepLinkBW} {
		vals := []float64{0.05}
		if param == SweepControllerBW || param == SweepCoreBW || param == SweepLinkBW {
			vals = []float64{20e9}
		}
		if _, err := Sweep(b, param, vals, cfg, nil); err != nil {
			t.Fatalf("Sweep(%s): %v", param, err)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	if _, err := Sweep(b, SweepBeta, nil, cfg, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := Sweep(b, SweepParam("bogus"), []float64{1}, cfg, nil); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	// Values machine.Config would reinterpret, and a repeated point.
	for _, tc := range []struct {
		param  SweepParam
		values []float64
	}{
		{SweepBeta, []float64{-1}},
		{SweepAlpha, []float64{math.NaN()}},
		{SweepAlpha, []float64{math.Inf(1)}},
		{SweepControllerBW, []float64{0}},
		{SweepLinkBW, []float64{-1}},
		{SweepCoreBW, []float64{math.Inf(1)}},
		{SweepBeta, []float64{0, 0.003, 0}},
	} {
		if _, err := Sweep(b, tc.param, tc.values, cfg, nil); err == nil {
			t.Errorf("Sweep(%s, %v) accepted", tc.param, tc.values)
		}
	}
}

func TestSweepProgressAndReport(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	cfg.Reps = 1
	var seen []float64
	points, err := Sweep(b, SweepAlpha, []float64{0.01, 0.05}, cfg,
		func(v float64) { seen = append(seen, v) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("progress called %d times, want 2", len(seen))
	}
	var buf bytes.Buffer
	ReportSweep(&buf, b.Name, SweepAlpha, points)
	if !strings.Contains(buf.String(), "alpha") || !strings.Contains(buf.String(), "Matmul") {
		t.Fatalf("report missing content:\n%s", buf.String())
	}
}

// Progress must report completion, not enqueuing: the old Sweep announced
// every point from the setup loop before a single unit had run, so a user
// watching a long sweep saw "done" for work that hadn't started. Each
// progress(v) call must find all of v's units already counted done.
func TestSweepProgressFiresOnCompletion(t *testing.T) {
	b := mustBench(t, "Matmul")
	for _, jobs := range []int{1, 4} {
		cfg := testConfig()
		cfg.Reps = 2
		cfg.Jobs = jobs
		track := NewTracker()
		cfg.Track = track
		values := []float64{0.01, 0.03, 0.05}
		perValue := 2 * cfg.Reps // two kinds per value
		var calls int
		_, err := Sweep(b, SweepAlpha, values, cfg, func(v float64) {
			calls++
			if done := track.Snapshot().UnitsDone; done < int64(perValue) {
				t.Errorf("jobs=%d: progress(%g) fired with only %d units done (< %d)",
					jobs, v, done, perValue)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(values) {
			t.Fatalf("jobs=%d: progress called %d times, want %d", jobs, calls, len(values))
		}
	}
}

// With a sequential pool the completion order is the value order, so the
// reported sequence must match exactly.
func TestSweepProgressSequentialOrder(t *testing.T) {
	b := mustBench(t, "Matmul")
	cfg := testConfig()
	cfg.Reps = 1
	cfg.Jobs = 1
	values := []float64{0.02, 0.04, 0.06}
	var seen []float64
	if _, err := Sweep(b, SweepAlpha, values, cfg, func(v float64) {
		seen = append(seen, v)
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(values) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(values))
	}
	for i, v := range values {
		if seen[i] != v {
			t.Fatalf("sequential completion order %v, want %v", seen, values)
		}
	}
}

func TestConfigOverridesReachMachine(t *testing.T) {
	// A tiny controller bandwidth must slow a memory-bound benchmark down.
	b := mustBench(t, "CG")
	fast := testConfig()
	fast.Reps = 1
	slow := fast
	slow.ControllerBW = 2e9
	slow.CoreStreamBW = 2e9
	sFast, err := RunOne(b, KindBaseline, fast, 0)
	if err != nil {
		t.Fatal(err)
	}
	sSlow, err := RunOne(b, KindBaseline, slow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sSlow.ElapsedSec <= sFast.ElapsedSec {
		t.Fatalf("bandwidth override ineffective: %g vs %g", sSlow.ElapsedSec, sFast.ElapsedSec)
	}
}
