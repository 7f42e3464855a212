package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAttrOutputNeutral: attribution must not perturb a campaign — every
// timing sample and the merged obs snapshot are identical with Config.Attr
// on or off. This is the sample-level half of the byte-identity gate; CI
// additionally diffs whole -out and -perfetto files.
func TestAttrOutputNeutral(t *testing.T) {
	t.Parallel()
	run := func(attr bool) *Cell {
		cfg := testConfig()
		cfg.Reps = 3
		cfg.Metrics = true
		cfg.Attr = attr
		cell, err := runCell(mustBench(t, "CG"), KindILAN, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	off, on := run(false), run(true)
	for r := range off.Samples {
		a, b := off.Samples[r], on.Samples[r]
		if a.ElapsedSec != b.ElapsedSec || a.OverheadSec != b.OverheadSec ||
			a.WeightedThreads != b.WeightedThreads {
			t.Fatalf("rep %d samples moved with attribution on:\noff %+v\non  %+v", r, a, b)
		}
		if b.Attr == nil {
			t.Fatalf("rep %d missing attribution with Config.Attr set", r)
		}
		if a.Attr != nil {
			t.Fatalf("rep %d carries attribution with Config.Attr off", r)
		}
	}
	a, b := snapJSON(t, off), snapJSON(t, on)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged obs snapshot moved with attribution on:\noff: %s\non:  %s", a, b)
	}
}

// TestAttrMergedJobsInvariant extends the jobs-determinism contract to
// attribution: the merged report serializes byte-identically whether the
// reps ran on one worker or eight, and the merged decomposition still
// satisfies both conservation laws.
func TestAttrMergedJobsInvariant(t *testing.T) {
	t.Parallel()
	run := func(jobs int) *Cell {
		cfg := testConfig()
		cfg.Reps = 4
		cfg.Jobs = jobs
		cfg.Attr = true
		cell, err := runCell(mustBench(t, "FT"), KindILAN, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	attrJSON := func(c *Cell) []byte {
		a := c.MergedAttr()
		if a == nil {
			t.Fatal("MergedAttr nil with Config.Attr set")
		}
		j, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	seq, par := run(1), run(8)
	a, b := attrJSON(seq), attrJSON(par)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged attribution differs between jobs=1 and jobs=8:\nseq: %s\npar: %s", a, b)
	}
	m := seq.MergedAttr()
	if m.Runs != 4 || m.Task.Tasks == 0 {
		t.Fatalf("merged report incomplete: runs=%d tasks=%d", m.Runs, m.Task.Tasks)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("merged attribution violates conservation: %v", err)
	}
	if len(m.Loops) == 0 {
		t.Fatal("merged report carries no loop decompositions")
	}
}

// TestAttrCGILANBeatsObliviousBaseline is the paper-facing qualitative
// check behind `obsdump attr`: on the memory-bound CG benchmark the ILAN
// scheduler must accumulate less interference stall than the
// locality-oblivious baseline, and the attribution must expose the locality
// penalty the baseline pays for its oblivious placement.
func TestAttrCGILANBeatsObliviousBaseline(t *testing.T) {
	t.Parallel()
	run := func(k Kind) *Cell {
		cfg := testConfig()
		cfg.Reps = 2
		cfg.Attr = true
		cell, err := runCell(mustBench(t, "CG"), k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	base := run(KindBaseline).MergedAttr()
	ilan := run(KindILAN).MergedAttr()
	t.Logf("baseline: interference=%gs locality=%gs", base.Task.InterferenceSec, base.Task.LocalitySec)
	t.Logf("ilan:     interference=%gs locality=%gs", ilan.Task.InterferenceSec, ilan.Task.LocalitySec)
	if ilan.Task.InterferenceSec >= base.Task.InterferenceSec {
		t.Fatalf("ILAN interference stall %gs not below oblivious baseline %gs",
			ilan.Task.InterferenceSec, base.Task.InterferenceSec)
	}
	if base.Task.LocalitySec <= 0 {
		t.Fatalf("oblivious baseline shows no locality penalty (%gs); the term is not being attributed",
			base.Task.LocalitySec)
	}
}
