package harness

import (
	"bytes"
	"testing"
)

func snapJSON(t *testing.T, c *Cell) []byte {
	t.Helper()
	snap := c.MergedObs()
	if snap == nil {
		t.Fatal("MergedObs returned nil for a metrics-enabled cell")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsMergedSnapshotParallelMatchesSequential extends the executor's
// determinism contract to the observability layer: with metrics and
// decision tracing on, the merged per-cell snapshot must serialize to
// byte-identical JSON whether the reps ran on one worker or eight.
func TestObsMergedSnapshotParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	b := mustBench(t, "FT")
	seqCfg := testConfig()
	seqCfg.Reps = 4
	seqCfg.Jobs = 1
	seqCfg.Metrics = true
	seqCfg.TraceDecisions = true
	parCfg := seqCfg
	parCfg.Jobs = 8

	seq, err := runCell(b, KindILAN, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runCell(b, KindILAN, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	a, p := snapJSON(t, seq), snapJSON(t, par)
	if !bytes.Equal(a, p) {
		t.Fatalf("merged obs snapshots differ between jobs=1 and jobs=8:\nseq: %s\npar: %s", a, p)
	}

	snap := seq.MergedObs()
	if snap.Runs != 4 {
		t.Fatalf("merged snapshot covers %d runs, want 4", snap.Runs)
	}
	if snap.DecisionsTotal == 0 || len(snap.Decisions) == 0 {
		t.Fatal("ILAN cell recorded no decisions with tracing on")
	}
	// Decisions must be concatenated in rep order with their Rep tag set.
	lastRep := 0
	for i, d := range snap.Decisions {
		if d.Rep < lastRep {
			t.Fatalf("decision %d out of rep order: rep %d after %d", i, d.Rep, lastRep)
		}
		lastRep = d.Rep
	}
	if lastRep != 3 {
		t.Fatalf("last decision rep = %d, want 3 (4 reps)", lastRep)
	}
	if snap.Counters["taskrt_loop_executions_total"] <= 0 {
		t.Fatal("merged counters missing loop executions")
	}
}

// TestObsNilWhenDisabled: without -metrics the harness must not attach a
// collector at all — samples and the merged view stay nil, keeping the
// campaign on the PR 2 hot path and its outputs byte-identical.
func TestObsNilWhenDisabled(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Reps = 2
	cell, err := runCell(mustBench(t, "Matmul"), KindILAN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range cell.Samples {
		if s.Obs != nil {
			t.Fatalf("rep %d carries an obs snapshot with metrics disabled", r)
		}
	}
	if cell.MergedObs() != nil {
		t.Fatal("MergedObs non-nil with metrics disabled")
	}
}

// TestObsTraceDecisionsImpliesMetrics: -trace-decisions alone must still
// produce a snapshot (the flag implies metric collection).
func TestObsTraceDecisionsImpliesMetrics(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Reps = 1
	cfg.TraceDecisions = true
	cell, err := runCell(mustBench(t, "Matmul"), KindILAN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cell.MergedObs() == nil {
		t.Fatal("no snapshot with TraceDecisions set")
	}
	if cell.MergedObs().DecisionsTotal == 0 {
		t.Fatal("no decisions traced")
	}
}
