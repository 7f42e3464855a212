package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilSafety drives every recording method through a nil *Run: the
// disabled layer must be a silent no-op end to end.
func TestNilSafety(t *testing.T) {
	var run *Run
	run.Add("engine_x_total", 1)
	run.Add("engine_x_total", 3)
	run.Set("machine_g", 4)
	run.Observe("taskrt_h", []float64{1, 2}, 1.5)
	run.Decisions().Record(Decision{LoopID: 1})
	run.Profile().Add("a", "b", 1)
	if run.Snapshot() != nil {
		t.Fatal("disabled run produced a snapshot")
	}
	if run.Decisions() != nil || run.Profile() != nil {
		t.Fatal("disabled run exposed live components")
	}
	if got := run.Decisions().Total(); got != 0 {
		t.Fatalf("nil ring total = %d", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	run := NewRun(Options{})
	if s := run.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("empty run snapshot has metric maps: %+v", s)
	}
	run.Add("engine_events_fired_total", 1)
	run.Add("engine_events_fired_total", 4)
	run.Set("util", 0.25)
	run.Set("util", 0.5)
	for _, v := range []float64{0.5, 1, 5, 100} {
		run.Observe("lat", []float64{1, 10}, v)
	}
	// A later Observe's bounds are ignored: the first call's stay.
	run.Observe("lat", []float64{1000}, 2000)
	s := run.Snapshot()
	if got := s.Counters["engine_events_fired_total"]; got != 5 {
		t.Fatalf("counter = %g, want 5", got)
	}
	if got := s.Gauges["util"]; got != 0.5 {
		t.Fatalf("gauge = %g, want last-set 0.5", got)
	}
	h := s.Histograms["lat"]
	if len(h.Bounds) != 2 || h.Bounds[1] != 10 {
		t.Fatalf("bounds = %v, want the first call's [1 10]", h.Bounds)
	}
	// A sample equal to a bound lands in that bound's bucket (le
	// semantics); 2000 lands in +Inf.
	want := []uint64{2, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if h.Count != 5 || h.Sum != 2106.5 {
		t.Fatalf("count/sum = %d/%g", h.Count, h.Sum)
	}
}

// TestSnapshotIsACopy: recording after Snapshot must not reach back into
// the snapshot already taken — it is exported and merged as immutable.
func TestSnapshotIsACopy(t *testing.T) {
	bounds := []float64{1, 2}
	run := NewRun(Options{})
	run.Add("c_total", 1)
	run.Set("g", 1)
	run.Observe("h", bounds, 0.5)
	s := run.Snapshot()
	run.Add("c_total", 1)
	run.Add("new_total", 1)
	run.Set("g", 2)
	run.Observe("h", bounds, 0.5)
	bounds[0] = 99
	if s.Counters["c_total"] != 1 || len(s.Counters) != 1 || s.Gauges["g"] != 1 {
		t.Fatalf("snapshot counters/gauges moved: %v %v", s.Counters, s.Gauges)
	}
	if h := s.Histograms["h"]; h.Count != 1 || h.Counts[0] != 1 || h.Bounds[0] != 1 {
		t.Fatalf("snapshot histogram moved: %+v", h)
	}
	if h := run.Snapshot().Histograms["h"]; h.Count != 2 || h.Bounds[0] != 1 {
		t.Fatalf("run histogram = %+v, want 2 samples over its own copy of the bounds", h)
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRun(Options{}).Add("c", -1)
}

func TestRingWraps(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(Decision{K: i})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	ds := r.Decisions()
	if len(ds) != 3 {
		t.Fatalf("retained %d decisions, want 3", len(ds))
	}
	for i, want := range []int{3, 4, 5} {
		if ds[i].K != want {
			t.Fatalf("decisions[%d].K = %d, want %d (oldest-first order)", i, ds[i].K, want)
		}
	}
}

// TestRingOrderAcrossWraps pins the oldest-first contract through every
// fill level and wrap count: after n records into a capacity-c ring,
// Decisions() must be exactly the last min(n, c) records in recording
// order, wherever the internal write cursor happens to sit.
func TestRingOrderAcrossWraps(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7} {
		r := NewRing(capacity)
		for n := 1; n <= 4*capacity+1; n++ {
			r.Record(Decision{K: n})
			ds := r.Decisions()
			want := n
			if want > capacity {
				want = capacity
			}
			if len(ds) != want {
				t.Fatalf("cap %d after %d records: retained %d, want %d", capacity, n, len(ds), want)
			}
			for i, d := range ds {
				if exp := n - want + 1 + i; d.K != exp {
					t.Fatalf("cap %d after %d records: decisions[%d].K = %d, want %d",
						capacity, n, i, d.K, exp)
				}
			}
			if r.Total() != uint64(n) {
				t.Fatalf("cap %d: total = %d, want %d", capacity, r.Total(), n)
			}
		}
	}
}

// TestSnapshotAfterWrap checks the ordering survives into Run.Snapshot,
// the path obsdump's decisions format actually reads.
func TestSnapshotAfterWrap(t *testing.T) {
	run := NewRun(Options{TraceDecisions: true, RingCap: 4})
	for n := 1; n <= 11; n++ {
		run.Decisions().Record(Decision{K: n})
	}
	s := run.Snapshot()
	if s.DecisionsTotal != 11 {
		t.Fatalf("DecisionsTotal = %d, want 11", s.DecisionsTotal)
	}
	if len(s.Decisions) != 4 {
		t.Fatalf("retained %d decisions, want 4", len(s.Decisions))
	}
	for i, want := range []int{8, 9, 10, 11} {
		if s.Decisions[i].K != want {
			t.Fatalf("snapshot decisions[%d].K = %d, want %d (oldest-first after wrap)",
				i, s.Decisions[i].K, want)
		}
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	mkRun := func(c float64, g float64, rep int) *Snapshot {
		run := NewRun(Options{TraceDecisions: true, RingCap: 8})
		run.Add("taskrt_steals_local_total", c)
		run.Set(`machine_mc_utilization{node="0"}`, g)
		run.Observe("taskrt_loop_elapsed_sec", []float64{1}, g)
		run.Decisions().Record(Decision{LoopID: 1, K: 1, Phase: "explore"})
		run.Profile().Add("loop", "compute", c)
		s := run.Snapshot()
		for i := range s.Decisions {
			s.Decisions[i].Rep = rep
		}
		return s
	}
	a, b := mkRun(2, 0.2, 0), mkRun(4, 0.6, 1)
	m := Merge([]*Snapshot{a, nil, b})
	if m.Runs != 2 {
		t.Fatalf("runs = %d", m.Runs)
	}
	if got := m.Counters["taskrt_steals_local_total"]; got != 6 {
		t.Fatalf("merged counter = %g, want 6 (sum)", got)
	}
	if got := m.Gauges[`machine_mc_utilization{node="0"}`]; got != 0.4 {
		t.Fatalf("merged gauge = %g, want 0.4 (mean)", got)
	}
	if got := m.Histograms["taskrt_loop_elapsed_sec"].Count; got != 2 {
		t.Fatalf("merged hist count = %d, want 2", got)
	}
	if len(m.Decisions) != 2 || m.Decisions[0].Rep != 0 || m.Decisions[1].Rep != 1 {
		t.Fatalf("merged decisions wrong: %+v", m.Decisions)
	}
	if got := m.Profile["loop;compute"]; got != 6 {
		t.Fatalf("merged profile = %g, want 6", got)
	}
	if Merge([]*Snapshot{nil, nil}) != nil {
		t.Fatal("all-nil merge produced a snapshot")
	}
}

// TestSnapshotJSONDeterministic: identical contents must serialize to
// identical bytes — the foundation of the jobs=1 vs jobs=N metrics gate.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		run := NewRun(Options{TraceDecisions: true})
		// Insert in varying order; map key sorting must hide it.
		for _, n := range []string{"m_z_total", "m_a_total", "m_k_total"} {
			run.Add(n, 1)
		}
		run.Set("m_g2", 2)
		run.Set("m_g1", 1)
		run.Profile().Add("l2", "mem", 2)
		run.Profile().Add("l1", "cpu", 1)
		var buf bytes.Buffer
		if err := run.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, build()) {
			t.Fatal("snapshot JSON bytes differ across identical builds")
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	run := NewRun(Options{})
	run.Add("engine_events_fired_total", 10)
	run.Set(`machine_mc_utilization{node="1"}`, 0.5)
	run.Set(`machine_mc_utilization{node="0"}`, 0.25)
	run.Observe("taskrt_loop_elapsed_sec", []float64{1, 2}, 1.5)
	var buf bytes.Buffer
	if err := run.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE engine_events_fired_total counter\n",
		"engine_events_fired_total 10\n",
		"# TYPE machine_mc_utilization gauge\n",
		"machine_mc_utilization{node=\"0\"} 0.25\n",
		"machine_mc_utilization{node=\"1\"} 0.5\n",
		"# TYPE taskrt_loop_elapsed_sec histogram\n",
		"taskrt_loop_elapsed_sec_bucket{le=\"2\"} 1\n",
		"taskrt_loop_elapsed_sec_bucket{le=\"+Inf\"} 1\n",
		"taskrt_loop_elapsed_sec_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The family TYPE line must appear once even with two labeled samples.
	if strings.Count(out, "# TYPE machine_mc_utilization gauge") != 1 {
		t.Fatalf("duplicated TYPE line:\n%s", out)
	}
}

func TestWriteFolded(t *testing.T) {
	run := NewRun(Options{})
	run.Profile().Add("CG.spmv", "compute", 0.0025)
	run.Profile().Add("CG.spmv", "memory", 0.001)
	run.Profile().Add("tiny", "overhead", 1e-9) // rounds up to 1us, not 0
	var buf bytes.Buffer
	if err := run.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "CG.spmv;compute 2500\nCG.spmv;memory 1000\ntiny;overhead 1\n"
	if buf.String() != want {
		t.Fatalf("folded output:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.25, 2, 4)
	want := []float64{0.25, 0.5, 1, 2}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestLabel(t *testing.T) {
	if got := Label("node", 3); got != `{node="3"}` {
		t.Fatalf("Label = %q", got)
	}
}
