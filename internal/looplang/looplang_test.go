package looplang

import (
	"slices"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

const goodDoc = `{
  "name": "myapp",
  "steps": 4,
  "regions": [
    {"name": "grid", "placement": "blocked"},
    {"name": "vec", "sizeMB": 32, "placement": "interleaved"},
    {"name": "local", "sizeMB": 8, "placement": "node:2"}
  ],
  "loops": [
    {
      "name": "sweep", "iters": 256, "tasks": 64, "computeMicros": 20,
      "imbalance": {"blocks": 16, "amplitude": 0.4},
      "streams": [{"region": "grid", "kbPerIter": 64}],
      "spans": [{"region": "vec", "kbPerIter": 16, "pattern": "gather"}]
    },
    {
      "name": "update", "iters": 256, "tasks": 64, "computeMicros": 10,
      "streams": [{"region": "grid", "kbPerIter": 64}],
      "spans": [{"region": "local", "kbPerIter": 4, "pattern": "transpose"}]
    }
  ],
  "sequence": ["sweep", "update", "sweep"]
}`

func newM() *machine.Machine {
	return machine.New(machine.Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  1,
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
}

func TestParseGoodDocument(t *testing.T) {
	doc, err := Parse(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "myapp" || len(doc.Loops) != 2 || len(doc.Regions) != 3 {
		t.Fatalf("parsed document wrong: %+v", doc)
	}
}

func TestBuildAndRun(t *testing.T) {
	doc, err := Parse(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 steps x 3 loop refs.
	if len(prog.Sequence) != 12 {
		t.Fatalf("sequence length %d, want 12", len(prog.Sequence))
	}
	rt := taskrt.New(m, &sched.Baseline{}, taskrt.DefaultCosts())
	res, err := rt.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 12*64 {
		t.Fatalf("executed %d tasks, want %d", res.TasksExecuted, 12*64)
	}
}

func TestAutoSizedRegion(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	if _, err := doc.Build(m); err != nil {
		t.Fatal(err)
	}
	// grid was auto-sized to iters * kbPerIter = 256 * 64 KiB = 16 MiB.
	var found bool
	for _, r := range m.Memory().Regions() {
		if r.Name() == "grid" {
			found = true
			if r.Size() != 256*64<<10 {
				t.Fatalf("grid size = %d, want %d", r.Size(), 256*64<<10)
			}
		}
	}
	if !found {
		t.Fatal("grid region not allocated")
	}
}

func TestDefaultSequenceIsAllLoops(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	doc.Sequence = nil
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Sequence) != 4*2 {
		t.Fatalf("default sequence length %d, want 8", len(prog.Sequence))
	}
}

func TestImbalanceAffectsDemand(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	sweep := prog.Loops[0]
	a, _ := sweep.Demand(0, 16)
	b, _ := sweep.Demand(128, 144)
	if a == b {
		t.Fatal("imbalanced loop has uniform chunk compute")
	}
	update := prog.Loops[1]
	c, _ := update.Demand(0, 16)
	d, _ := update.Demand(128, 144)
	if c != d {
		t.Fatal("uniform loop has imbalanced compute")
	}
}

func TestHintFollowsStreamPlacement(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	m := newM()
	prog, err := doc.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	sweep := prog.Loops[0]
	if sweep.Hint == nil {
		t.Fatal("stream loop missing affinity hint")
	}
	first := sweep.Hint(0, 16)
	last := sweep.Hint(240, 256)
	if first == last {
		t.Fatal("hints do not spread over nodes for a blocked region")
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","steps":1,"bogus":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no name":           `{"steps":1,"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no steps":          `{"name":"x","loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"no loops":          `{"name":"x","steps":1}`,
		"dup region":        `{"name":"x","steps":1,"regions":[{"name":"r"},{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"bad placement":     `{"name":"x","steps":1,"regions":[{"name":"r","placement":"diagonal"}],"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"dup loop":          `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2},{"name":"l","iters":4,"tasks":2}]}`,
		"tasks>iters":       `{"name":"x","steps":1,"loops":[{"name":"l","iters":2,"tasks":4}]}`,
		"unknown region":    `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`,
		"zero volume":       `{"name":"x","steps":1,"regions":[{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":0}]}]}`,
		"bad span pattern":  `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":1}],"loops":[{"name":"l","iters":4,"tasks":2,"spans":[{"region":"r","kbPerIter":1,"pattern":"zigzag"}]}]}`,
		"stream w/ pattern": `{"name":"x","steps":1,"regions":[{"name":"r"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1,"pattern":"gather"}]}]}`,
		"bad sequence":      `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2}],"sequence":["nope"]}`,
		"bad imbalance":     `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":0,"amplitude":0.5}}]}`,
		"amplitude >= 1":    `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":4,"amplitude":1.0}}]}`,
		// Byte arithmetic that overflows int64, and the stated caps.
		"sizeMB<<20 overflows":    `{"name":"x","steps":1,"regions":[{"name":"v","sizeMB":8796093022208}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"v","kbPerIter":1}]}]}`,
		"sizeMB over 1 TiB":       `{"name":"x","steps":1,"regions":[{"name":"v","sizeMB":1048577}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"v","kbPerIter":1}]}]}`,
		"kbPerIter<<10 overflows": `{"name":"x","steps":1,"regions":[{"name":"v"}],"loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"v","kbPerIter":9007199254740992}]}]}`,
		"iters*kbPerIter":         `{"name":"x","steps":1,"regions":[{"name":"v"}],"loops":[{"name":"l","iters":1048576,"tasks":2,"streams":[{"region":"v","kbPerIter":17179869184}]}]}`,
		"span over 1 TiB":         `{"name":"x","steps":1,"regions":[{"name":"v","sizeMB":1}],"loops":[{"name":"l","iters":1024,"tasks":2,"spans":[{"region":"v","kbPerIter":1048577}]}]}`,
		"iters over cap":          `{"name":"x","steps":1,"loops":[{"name":"l","iters":1048577,"tasks":2}]}`,
		"blocks > iters":          `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":8,"amplitude":0.5}}]}`,
		"steps*sequence":          `{"name":"x","steps":524289,"loops":[{"name":"l","iters":4,"tasks":2},{"name":"m","iters":4,"tasks":2}]}`,
		"steps over cap":          `{"name":"x","steps":1048577,"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"compute over cap":        `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"computeMicros":1e10}]}`,
		"negative salt":           `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":4,"amplitude":0.5,"salt":-1}}]}`,
		"salt over cap":           `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"blocks":4,"amplitude":0.5,"salt":1048577}}]}`,
		"unknown profile":         `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"profile":"sawtooth"}}]}`,
		"wavefront with blocks":   `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2,"imbalance":{"profile":"wavefront","blocks":2}}]}`,
		"bad node placement":      `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":1,"placement":"node:-1"}],"loops":[{"name":"l","iters":4,"tasks":2}]}`,
		"trailing data":           `{"name":"x","steps":1,"loops":[{"name":"l","iters":4,"tasks":2}]} {}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(doc)); err == nil {
				t.Errorf("accepted invalid document")
			}
		})
	}
}

func TestBuildRejectsUnsizedSpanRegion(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"spans":[{"region":"r","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(newM()); err == nil {
		t.Fatal("span over unsized region accepted")
	}
}

// TestBuildRejectsSpanLargerThanRegion: a span reads its bytes from
// anywhere in its region, so one chunk of the whole loop must fit in it.
func TestBuildRejectsSpanLargerThanRegion(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"v","sizeMB":1}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"spans":[{"region":"v","kbPerIter":512}]}]}`
	for kb, ok := range map[string]bool{"256": true, "257": false} {
		d, err := Parse(strings.NewReader(strings.Replace(doc, "512", kb, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Build(newM()); (err == nil) != ok {
			t.Errorf("4 iterations of %s KB from a 1 MB region: build error %v, want ok = %v", kb, err, ok)
		}
	}
}

func TestBuildRejectsUnusedUnsizedRegion(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r"},{"name":"used"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"used","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(newM()); err == nil {
		t.Fatal("unused unsized region accepted")
	}
}

func TestNodePlacement(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":8,"placement":"node:1"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	m := newM()
	if _, err := d.Build(m); err != nil {
		t.Fatal(err)
	}
	r := m.Memory().Regions()[0]
	counts := r.NodeBytes(m.Topology().NumNodes())
	if counts[1] != r.Size() {
		t.Fatalf("node placement failed: %v", counts)
	}
}

func TestNodePlacementOutOfRange(t *testing.T) {
	doc := `{"name":"x","steps":1,"regions":[{"name":"r","sizeMB":8,"placement":"node:99"}],
	  "loops":[{"name":"l","iters":4,"tasks":2,"streams":[{"region":"r","kbPerIter":1}]}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(newM()); err == nil {
		t.Fatal("node:99 accepted on a 4-node machine")
	}
}

func TestHashWeightRangeAndDeterminism(t *testing.T) {
	for i := 0; i < 1000; i++ {
		w := HashWeight(i, 0.5)
		if w < 0.5 || w > 1.5 {
			t.Fatalf("HashWeight(%d) = %g out of [0.5, 1.5]", i, w)
		}
		if w != HashWeight(i, 0.5) {
			t.Fatal("HashWeight not deterministic")
		}
	}
}

// TestBlockWeightIsBlocky: a blocks profile gives every iteration of a
// block its weight, and different blocks different weights.
func TestBlockWeightIsBlocky(t *testing.T) {
	doc := &Document{Name: "x", Steps: 1, Loops: []LoopDecl{{Name: "l", Iters: 100, Tasks: 100,
		ComputeMicros: 1e6, Imbalance: &ImbalanceDecl{Blocks: 10, Amplitude: 0.5}}}}
	prog, err := doc.Build(newM())
	if err != nil {
		t.Fatal(err)
	}
	w := func(i int) float64 {
		sec, _ := prog.Loops[0].Demand(i, i+1)
		return sec
	}
	// All iterations in the same block share a weight.
	for i := 0; i < 10; i++ {
		if w(i) != w(0) {
			t.Fatalf("iterations 0 and %d in block 0 differ", i)
		}
	}
	// Different blocks (almost surely) differ.
	diff := 0
	for b := 1; b < 10; b++ {
		if w(b*10) != w(0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("all blocks share one weight")
	}
}

// TestComputeIsMicrosOverAMillion: per-iteration compute is
// computeMicros/1e6, the float64 of the matching Go literal, and a uniform
// chunk computes it times the chunk's iteration count.
func TestComputeIsMicrosOverAMillion(t *testing.T) {
	for micros, want := range map[float64]float64{30: 30e-6, 110: 110e-6, 120: 120e-6, 180: 180e-6, 290: 290e-6} {
		doc := &Document{Name: "x", Steps: 1, Loops: []LoopDecl{{Name: "l", Iters: 1000, Tasks: 10, ComputeMicros: micros}}}
		prog, err := doc.Build(newM())
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := prog.Loops[0].Demand(0, 1); got != want {
			t.Errorf("%g µs: one iteration computes %g s, want %g", micros, got, want)
		}
		if got, _ := prog.Loops[0].Demand(3, 1000); got != want*997 {
			t.Errorf("%g µs: 997 iterations compute %g s, want %g", micros, got, want*997)
		}
	}
}

// TestImbalanceProfiles: an omitted salt is salt 0, salts reshuffle the
// block weights, and the wavefront ramps up, plateaus and drains.
func TestImbalanceProfiles(t *testing.T) {
	weights := func(im string) []float64 {
		t.Helper()
		doc, err := Parse(strings.NewReader(`{"name":"x","steps":1,"loops":[{"name":"l","iters":100,"tasks":10,
		  "computeMicros":1000000,"imbalance":` + im + `}]}`))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := doc.Build(newM())
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, 100)
		for i := range w {
			w[i], _ = prog.Loops[0].Demand(i, i+1)
		}
		return w
	}
	plain := weights(`{"blocks":10,"amplitude":0.5}`)
	if !slices.Equal(plain, weights(`{"profile":"blocks","blocks":10,"amplitude":0.5,"salt":0}`)) {
		t.Error("an omitted salt differs from salt 0")
	}
	if slices.Equal(plain, weights(`{"blocks":10,"amplitude":0.5,"salt":1}`)) {
		t.Error("salt 1 gives the blocks of salt 0")
	}
	wave := weights(`{"profile":"wavefront"}`)
	for i, want := range map[int]float64{0: 0.8, 10: 0.8 + 1.25*0.1, 20: 1.05, 50: 1.05, 80: 1.05, 90: 0.8 + 1.25*(1-0.9)} {
		if wave[i] != want {
			t.Errorf("wavefront weight of iteration %d = %g, want %g", i, wave[i], want)
		}
	}
}

// TestDigestTracksContent: the digest moves with any number and not with
// the JSON's spelling.
func TestDigestTracksContent(t *testing.T) {
	doc, _ := Parse(strings.NewReader(goodDoc))
	respelled, err := Parse(strings.NewReader(strings.ReplaceAll(goodDoc, "\n", " ")))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Digest() != respelled.Digest() {
		t.Error("reformatting the JSON moved the digest")
	}
	changed, _ := Parse(strings.NewReader(strings.Replace(goodDoc, `"computeMicros": 20`, `"computeMicros": 21`, 1)))
	if doc.Digest() == changed.Digest() {
		t.Error("changing a loop's compute kept the digest")
	}
}
