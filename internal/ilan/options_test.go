package ilan

import (
	"reflect"
	"testing"

	"github.com/ilan-sched/ilan/internal/taskrt"
)

// TestOptionsFieldsAreClassified names, for every Options field, who sets
// it away from DefaultOptions. A mechanism no scheduler kind, oracle unit
// or ablation reaches has no row to be measured by; a new field fails this
// test until it earns one.
func TestOptionsFieldsAreClassified(t *testing.T) {
	setBy := map[string]string{
		"Moldability":    "the ilan-nomold kind",
		"CounterGuided":  "the ilan-counters kind",
		"FixedThreads":   "the oracle's fixed units",
		"FixedStealFull": "the oracle's fixed units",
		"Granularity":    "the ablation benches and simcheck",
		"StrictFraction": "the ablation benches and simcheck",
	}
	typ := reflect.TypeOf(Options{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if setBy[name] == "" {
			t.Errorf("Options.%s is set by no scheduler kind, oracle unit or ablation: "+
				"give it a row or make it a constant", name)
		}
	}
	for name := range setBy {
		if !fields[name] {
			t.Errorf("classification names nonexistent Options field %s", name)
		}
	}
}

// TestRegretInSeconds: the exploration regret is the summed extra elapsed
// time of the pre-settlement executions over the settled mean.
func TestRegretInSeconds(t *testing.T) {
	s := MustNew(DefaultOptions())
	ls := s.state(1, smallTopo())
	ls.history = []ExecRecord{
		{K: 1, Phase: PhaseExplore, ElapsedSec: 1.5},
		{K: 2, Phase: PhaseSettled, ElapsedSec: 1.0},
		{K: 3, Phase: PhaseSettled, ElapsedSec: 1.0},
	}
	extra, mean, ok := s.Regret(1)
	if !ok {
		t.Fatal("regret unavailable")
	}
	if mean != 1 || extra != 0.5 {
		t.Fatalf("regret = %g over a settled mean of %g, want 0.5 over 1", extra, mean)
	}
}

// TestHistoryRecordsElapsed: every execution leaves one record carrying
// its measured time, in execution order.
func TestHistoryRecordsElapsed(t *testing.T) {
	s := MustNew(DefaultOptions())
	rt := newRuntime(t, s, 45e9)
	loop := computeLoop()
	prog := &taskrt.Program{Name: "c", Loops: []*taskrt.LoopSpec{loop}, Sequence: repeat(5, 0)}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	hist := s.History(loop.ID)
	if len(hist) != 5 {
		t.Fatalf("history has %d records, want 5", len(hist))
	}
	for i, rec := range hist {
		if rec.K != i+1 || rec.ElapsedSec <= 0 {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
}
