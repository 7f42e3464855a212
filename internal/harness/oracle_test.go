package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/workloads"
)

func TestRunOracleSmall(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 1
	benches := []workloads.Benchmark{mustBench(t, "Matmul")}
	var calls int
	res, err := RunOracle(benches, cfg, func(string, int, bool) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	// SmallTest: 16 cores, node size 4 => widths {4,8,12,16} x 2 policies.
	if len(r.Points) != 8 || calls != 8 {
		t.Fatalf("evaluated %d configs (%d calls), want 8", len(r.Points), calls)
	}
	if r.Best.MeanSec <= 0 || r.ILANSec <= 0 || r.BaselineSec <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// The oracle is the min over its own points.
	for _, p := range r.Points {
		if p.MeanSec < r.Best.MeanSec {
			t.Fatalf("best (%+v) is not minimal (found %+v)", r.Best, p)
		}
	}
	if r.Efficiency() <= 0 {
		t.Fatalf("efficiency = %g", r.Efficiency())
	}
	var buf bytes.Buffer
	ReportOracle(&buf, res)
	if !strings.Contains(buf.String(), "Matmul") || !strings.Contains(buf.String(), "efficiency") {
		t.Fatalf("report wrong:\n%s", buf.String())
	}
}

// TestOracleFixedPointsSeeDisturbance: the fixed points run on the same
// machines as the ILAN and baseline units, so an injected interferer must
// move their times too — otherwise the efficiency would compare an
// undisturbed oracle with a disturbed ILAN.
func TestOracleFixedPointsSeeDisturbance(t *testing.T) {
	cfg := testConfig()
	cfg.Reps = 1
	benches := []workloads.Benchmark{mustBench(t, "CG")}
	calm, err := RunOracle(benches, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Disturb = &Disturb{Node: 1}
	disturbed, err := RunOracle(benches, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range calm[0].Points {
		q := disturbed[0].Points[i]
		if p.Threads == 16 && p.MeanSec == q.MeanSec {
			t.Errorf("full-width fixed point %d/%v ignored the disturbance: %g s both ways",
				p.Threads, p.StealFull, p.MeanSec)
		}
	}
	if calm[0].ILANSec == disturbed[0].ILANSec {
		t.Error("ILAN ignored the disturbance")
	}
}

// TestCampaignTrackingCountsEveryUnit: the co-run and oracle campaigns each
// give a subscribed tracker exactly one terminal event, and every unit —
// the solo references and fixed points included — is declared and
// reported.
func TestCampaignTrackingCountsEveryUnit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		units int64
		run   func(cfg Config) error
	}{
		// CG and FT solo references under 2 kinds x 2 reps, then 2 kinds x
		// 2 reps of the co-run.
		{"multi", 8 + 4, func(cfg Config) error {
			cfg.Multi = &CoRun{Benches: []string{"CG", "FT"}}
			_, err := RunMulti([]Kind{KindBaseline, KindILAN}, cfg, nil)
			return err
		}},
		// SmallTest: 4 widths x 2 policies fixed points, plus ILAN and
		// baseline, x 2 reps.
		{"oracle", (8 + 2) * 2, func(cfg Config) error {
			_, err := RunOracle([]workloads.Benchmark{mustBench(t, "Matmul")}, cfg, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker()
			events, cancel := tr.Subscribe()
			defer cancel()
			cfg := testConfig()
			cfg.Jobs = 2
			cfg.Track = tr
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
			dones, cellEvents := 0, 0
			for drained := false; !drained; {
				select {
				case ev := <-events:
					switch ev.Type {
					case "done":
						dones++
					case "cell":
						cellEvents++
					}
				default:
					drained = true
				}
			}
			if dones != 1 {
				t.Errorf("%d done events, want exactly 1", dones)
			}
			s := tr.Snapshot()
			// Cell events come only from UnitDone, never from Finish's
			// force-completion, so they prove every unit was reported.
			if cellEvents != s.CellsTotal {
				t.Errorf("%d cell completion events, want one per cell (%d)", cellEvents, s.CellsTotal)
			}
			if !s.Finished || s.UnitsTotal != tc.units || s.UnitsDone != tc.units || s.CellsDone != s.CellsTotal {
				t.Errorf("final snapshot = %d/%d units, %d/%d cells, finished %v; want %d units",
					s.UnitsDone, s.UnitsTotal, s.CellsDone, s.CellsTotal, s.Finished, tc.units)
			}
		})
	}
}

func TestOracleEfficiencyBounded(t *testing.T) {
	// The oracle can never be slower than a fixed configuration ILAN could
	// settle on, so efficiency is almost always <= ~1 (modulo noise and
	// ILAN's full-policy evaluation run); sanity-bound it.
	cfg := testConfig()
	cfg.Reps = 1
	res, err := RunOracle([]workloads.Benchmark{mustBench(t, "CG")}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := res[0].Efficiency(); e > 1.2 {
		t.Fatalf("efficiency %g implausibly above 1", e)
	}
}
