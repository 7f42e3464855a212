package results

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// tracedFile is a small solo campaign file whose cell carries a task
// trace over two nodes; edit mutates the trace before it is written.
func tracedFile(t testing.TB, edit func(*taskrt.Trace)) []byte {
	tr := &taskrt.Trace{
		Tasks: []taskrt.TaskEvent{
			{LoopID: 1, LoopName: "l", Exec: 1, Lo: 0, Hi: 4, Core: 0, Node: 0, StartSec: 0, EndSec: 1e-3, FromCore: -1},
			{LoopID: 1, LoopName: "l", Exec: 1, Lo: 4, Hi: 8, Core: 5, Node: 1, StartSec: 1e-4, EndSec: 2e-3,
				Stolen: true, Remote: true, FromCore: 1},
		},
		Loops:     []taskrt.LoopMark{{LoopID: 1, LoopName: "l", Exec: 1, SubmitSec: 0, DoneSec: 2e-3, Threads: 8}},
		Resources: []taskrt.ResSample{{TimeSec: 1e-3, Node: 0, MCBytes: 1e6}, {TimeSec: 1e-3, Node: 1, Queue: 0.5}},
	}
	if edit != nil {
		edit(tr)
	}
	f := &File{Version: FormatVersion, Reps: 1, Seed: 2025, Class: "test", Cells: []Cell{{
		Bench: "CG", Kind: "ilan", Times: []float64{2e-3}, Overheads: []float64{1e-5},
		WeightedThreads: []float64{8}, Trace: tr,
	}}}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asMulti moves a solo file's trace into the multi cell of a co-run file.
func asMulti(t testing.TB, solo []byte) []byte {
	var f File
	if err := json.Unmarshal(solo, &f); err != nil {
		t.Fatal(err)
	}
	tr := f.Cells[0].Trace
	f.Cells[0].Trace = nil
	f.CoRun = &harness.CoRun{Benches: []string{"CG"}}
	f.MultiCells = []MultiCell{{Kind: "ilan", Elapsed: []float64{2e-3}, Trace: tr,
		Programs: []MultiProgram{{Program: "CG", Bench: "CG", ArrivalSec: []float64{0},
			StartSec: []float64{0}, MakespanSec: []float64{2e-3}}}}}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsTraceOutOfRange: a trace a view would index out of range
// is a decode error, in a solo cell and in a co-run cell alike.
func TestReadRejectsTraceOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(*taskrt.Trace)
		errHas string
	}{
		{"well-formed", nil, ""},
		{"no resource samples", func(tr *taskrt.Trace) { tr.Resources = nil; tr.Tasks[1].Node = 9 }, ""},
		{"task node 99", func(tr *taskrt.Trace) { tr.Tasks[1].Node = 99 }, "task 1 (node 99,"},
		{"negative task node", func(tr *taskrt.Trace) { tr.Tasks[0].Node = -1 }, "task 0 (node -1,"},
		{"negative core", func(tr *taskrt.Trace) { tr.Tasks[1].Core = -7 }, "core -7,"},
		{"from below -1", func(tr *taskrt.Trace) { tr.Tasks[1].FromCore = -2 }, "from core -2,"},
		{"ends before start", func(tr *taskrt.Trace) { tr.Tasks[0].EndSec = -1 }, "0--1 s"},
		{"negative resource node", func(tr *taskrt.Trace) { tr.Resources[1].Node = -3 }, "resource sample 1 is on node -3"},
	}
	for _, tc := range cases {
		solo := tracedFile(t, tc.edit)
		for name, data := range map[string][]byte{"solo": solo, "multi": asMulti(t, solo)} {
			_, err := Read(bytes.NewReader(data))
			switch {
			case tc.errHas == "" && err != nil:
				t.Errorf("%s %s: rejected: %v", name, tc.name, err)
			case tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)):
				t.Errorf("%s %s: err = %v, want one naming %q", name, tc.name, err, tc.errHas)
			}
		}
	}
}

// TestCheckTraceAllocsZero: the trace check on the decode path allocates
// nothing for a well-formed trace.
func TestCheckTraceAllocsZero(t *testing.T) {
	var f File
	if err := json.Unmarshal(tracedFile(t, nil), &f); err != nil {
		t.Fatal(err)
	}
	tr := f.Cells[0].Trace
	if allocs := testing.AllocsPerRun(100, func() {
		if err := checkTrace(tr); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("checkTrace allocates %g times per call", allocs)
	}
}

// FuzzRead: Read returns an error or a file whose Write output reads back
// and re-encodes to the same bytes, and the views over an accepted file
// never panic.
func FuzzRead(f *testing.F) {
	solo := tracedFile(f, nil)
	f.Add(solo)
	f.Add(asMulti(f, solo))
	f.Add(tracedFile(f, func(tr *taskrt.Trace) { tr.Tasks[1].Node = 99 }))
	f.Add([]byte(`{"version":1,"cells":[{"bench":"CG","kind":"ilan","attr":{"runs":1,"task":{"tasks":1}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := file.Write(&first); err != nil {
			t.Fatalf("Write of an accepted file: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read of a written file: %v", err)
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding changed the file:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		file.ToMatrix()
		file.ToMultiMatrix()
		traces := []*taskrt.Trace{}
		for _, c := range file.Cells {
			traces = append(traces, c.Trace)
		}
		for _, c := range file.MultiCells {
			traces = append(traces, c.Trace)
		}
		for _, tr := range traces {
			nodes := 0
			if tr != nil {
				for _, r := range tr.Resources {
					nodes = max(nodes, r.Node+1)
				}
			}
			if nodes > 0 {
				tr.Summary(nodes)
			}
		}
	})
}
