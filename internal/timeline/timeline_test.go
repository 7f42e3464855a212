package timeline

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/machine"
	"github.com/ilan-sched/ilan/internal/memsys"
	"github.com/ilan-sched/ilan/internal/sched"
	"github.com/ilan-sched/ilan/internal/taskrt"
	"github.com/ilan-sched/ilan/internal/topology"
)

func traceOf(t *testing.T) (*taskrt.Trace, *taskrt.Runtime) {
	t.Helper()
	m := machine.New(machine.Config{
		Topo:  topology.MustNew(topology.SmallTest()),
		Seed:  1,
		Noise: machine.NoiseConfig{},
		Alpha: -1,
	})
	rt := taskrt.New(m, &sched.Baseline{}, taskrt.DefaultCosts())
	tr := rt.EnableTracing()
	specs := []*taskrt.LoopSpec{
		{ID: 1, Name: "alpha", Iters: 32, Tasks: 16,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 20e-6 * float64(hi-lo), nil }},
		{ID: 2, Name: "beta", Iters: 32, Tasks: 16,
			Demand: func(lo, hi int) (float64, []memsys.Access) { return 10e-6 * float64(hi-lo), nil }},
	}
	prog := &taskrt.Program{Name: "p", Loops: specs, Sequence: []int{0, 1, 0, 1}}
	if _, err := rt.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return tr, rt
}

func TestRenderByNode(t *testing.T) {
	tr, rt := traceOf(t)
	var buf bytes.Buffer
	if err := Render(&buf, tr, rt.Topology().NumNodes()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for n := 0; n < rt.Topology().NumNodes(); n++ {
		if !strings.Contains(out, "node") {
			t.Fatalf("missing node rows:\n%s", out)
		}
	}
	if !strings.ContainsAny(out, "#o:.") {
		t.Fatalf("no occupancy shading:\n%s", out)
	}
}

func TestRenderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, nil, 4); err == nil {
		t.Fatal("nil trace accepted")
	}
	if err := Render(&buf, &taskrt.Trace{}, 4); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr, _ := traceOf(t)
	if err := Render(&buf, tr, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestGlyphsStable(t *testing.T) {
	if densityGlyph(0) != ' ' || densityGlyph(1) != '#' {
		t.Fatal("density glyphs wrong")
	}
}
