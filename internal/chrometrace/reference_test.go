package chrometrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// refEvent is one trace-event object as the reference marshals it.
type refEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	S     string         `json:"s,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type refDoc struct {
	DisplayTimeUnit string     `json:"displayTimeUnit"`
	TraceEvents     []refEvent `json:"traceEvents"`
}

// referenceWrite is the exporter Write must match byte for byte: every
// event built as a value with a map of args, then marshalled by
// encoding/json.
func referenceWrite(w io.Writer, tr *taskrt.Trace, decisions []obs.Decision, opts Options) error {
	if tr == nil {
		return fmt.Errorf("chrometrace: nil trace")
	}
	if opts.Process == "" {
		opts.Process = "ilan-sim"
	}
	cores := opts.Cores
	nodeOf := make(map[int]int)
	for _, t := range tr.Tasks {
		if t.Core >= cores {
			cores = t.Core + 1
		}
		if _, ok := nodeOf[t.Core]; !ok {
			nodeOf[t.Core] = t.Node
		}
	}
	nodeName := func(core int) int {
		if opts.NodeOfCore != nil {
			return opts.NodeOfCore(core)
		}
		return nodeOf[core] // 0 for cores that never ran a task
	}
	schedTid := cores // dedicated track after the last core

	// Program → process mapping. An untagged trace keeps everything on the
	// single historical pid; a tagged (multiprogram) trace gives each
	// program its own process in first-appearance order, pids 2, 3, ...,
	// with the shared tracks (scheduler instants, counters) staying on
	// pid 1 under the top-level process name.
	pidOf := map[string]int{"": pid}
	var programs []string
	for _, t := range tr.Tasks {
		if t.Program == "" {
			continue
		}
		if _, ok := pidOf[t.Program]; !ok {
			pidOf[t.Program] = pid + 1 + len(programs)
			programs = append(programs, t.Program)
		}
	}

	evs := make([]refEvent, 0, 2*len(tr.Tasks)+len(tr.Resources)+(len(programs)+1)*cores+8)

	// Metadata: process name, per-core thread names + sort order, and the
	// scheduler instant-event track. Multiprogram traces repeat the core
	// tracks under each program's process.
	evs = append(evs, refEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": opts.Process}})
	for i, prog := range programs {
		evs = append(evs,
			refEvent{Name: "process_name", Ph: "M", Pid: pidOf[prog],
				Args: map[string]any{"name": opts.Process + "/" + prog}},
			refEvent{Name: "process_sort_index", Ph: "M", Pid: pidOf[prog],
				Args: map[string]any{"sort_index": i + 1}})
	}
	coreTracks := func(p int) {
		for c := 0; c < cores; c++ {
			evs = append(evs,
				refEvent{Name: "thread_name", Ph: "M", Pid: p, Tid: c,
					Args: map[string]any{"name": fmt.Sprintf("core %d (node %d)", c, nodeName(c))}},
				refEvent{Name: "thread_sort_index", Ph: "M", Pid: p, Tid: c,
					Args: map[string]any{"sort_index": c}})
		}
	}
	if len(programs) == 0 {
		coreTracks(pid)
	}
	for _, prog := range programs {
		coreTracks(pidOf[prog])
	}
	evs = append(evs,
		refEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: schedTid,
			Args: map[string]any{"name": "scheduler"}},
		refEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: schedTid,
			Args: map[string]any{"sort_index": schedTid}})

	// Task slices + steal flows. Flow ids are per-steal; the "s" end sits
	// on the victim's track at the slice start time, the "f" end binds to
	// the enclosing slice on the thief's track (bp "e").
	flowID := 0
	for _, t := range tr.Tasks {
		cname := cnameStealable
		if t.Strict {
			cname = cnameStrict
		}
		args := map[string]any{
			"loop": t.LoopID, "exec": t.Exec, "lo": t.Lo, "hi": t.Hi,
			"stolen": t.Stolen, "remote": t.Remote, "strict": t.Strict,
			"from": t.FromCore,
		}
		// Attribution breakdown of the slice (DESIGN.md §14): visible in
		// the Perfetto slice-details pane. Tracing always enables machine
		// attribution, so these args appear in every exported trace —
		// which keeps the export byte-identical with -attr on or off.
		args["idealSec"] = t.IdealSec
		args["coreSpeedSec"] = t.CoreSpeedSec
		args["idealMemSec"] = t.IdealMemSec
		args["localitySec"] = t.LocalitySec
		args["interferenceSec"] = t.InterferenceSec
		tpid := pidOf[t.Program]
		evs = append(evs, refEvent{
			Name: t.LoopName, Ph: "X", Cat: "task",
			Ts: t.StartSec * usec, Dur: (t.EndSec - t.StartSec) * usec,
			Pid: tpid, Tid: t.Core, Cname: cname,
			Args: args,
		})
		if t.Remote && t.FromCore >= 0 {
			// Steals never cross programs (a runtime invariant), so both
			// flow ends live in the same process.
			flowID++
			evs = append(evs,
				refEvent{Name: "steal", Ph: "s", Cat: "steal", ID: flowID,
					Ts: t.StartSec * usec, Pid: tpid, Tid: t.FromCore},
				refEvent{Name: "steal", Ph: "f", Cat: "steal", ID: flowID, BP: "e",
					Ts: t.StartSec * usec, Pid: tpid, Tid: t.Core})
		}
	}

	// Scheduler instants: one per phase change and per steal-policy flip,
	// derived per loop from the decision trace.
	type loopState struct {
		phase string
		full  bool
		seen  bool
	}
	last := make(map[int]loopState)
	for _, d := range decisions {
		st := last[d.LoopID]
		if !st.seen || st.phase != d.Phase {
			evs = append(evs, refEvent{
				Name: fmt.Sprintf("loop %d → %s", d.LoopID, d.Phase),
				Ph:   "i", S: "g", Cat: "scheduler",
				Ts: d.TimeSec * usec, Pid: pid, Tid: schedTid,
				Args: map[string]any{"loop": d.LoopID, "k": d.K,
					"phase": d.Phase, "threads": d.Threads, "stealFull": d.StealFull},
			})
		}
		if st.seen && st.full != d.StealFull {
			evs = append(evs, refEvent{
				Name: fmt.Sprintf("loop %d steal→%s", d.LoopID, stealName(d.StealFull)),
				Ph:   "i", S: "g", Cat: "scheduler",
				Ts: d.TimeSec * usec, Pid: pid, Tid: schedTid,
				Args: map[string]any{"loop": d.LoopID, "k": d.K, "stealFull": d.StealFull},
			})
		}
		last[d.LoopID] = loopState{phase: d.Phase, full: d.StealFull, seen: true}
	}

	// Counter tracks: per-node MC bandwidth (GB/s, from cumulative byte
	// deltas between successive samples) and instantaneous queue load.
	lastBytes := make(map[int]taskrt.ResSample)
	for _, s := range tr.Resources {
		if prev, ok := lastBytes[s.Node]; ok && s.TimeSec > prev.TimeSec {
			bw := (s.MCBytes - prev.MCBytes) / (s.TimeSec - prev.TimeSec) / 1e9
			evs = append(evs, refEvent{
				Name: fmt.Sprintf("mc bandwidth node %d", s.Node), Ph: "C",
				Ts: s.TimeSec * usec, Pid: pid, Tid: 0,
				Args: map[string]any{"GB/s": bw},
			})
		}
		lastBytes[s.Node] = s
		evs = append(evs, refEvent{
			Name: fmt.Sprintf("mc queue node %d", s.Node), Ph: "C",
			Ts: s.TimeSec * usec, Pid: pid, Tid: 0,
			Args: map[string]any{"load": s.Queue},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(refDoc{DisplayTimeUnit: "ms", TraceEvents: evs})
}

// checkWrite fails t unless Write and the reference agree: the same bytes,
// or both an error with nothing written.
func checkWrite(t *testing.T, tr *taskrt.Trace, ds []obs.Decision, opts Options) {
	t.Helper()
	var got, want bytes.Buffer
	err := Write(&got, tr, ds, opts)
	wantErr := referenceWrite(&want, tr, ds, opts)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Write error %v, reference error %v", err, wantErr)
	case err != nil && got.Len() != 0:
		t.Fatalf("failed Write wrote %d bytes", got.Len())
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("Write differs from the reference at byte %d:\n got %q\nwant %q", i,
			got.Bytes()[max(0, i-60):min(got.Len(), i+60)], want.Bytes()[max(0, i-60):min(want.Len(), i+60)])
	}
}

// TestWriteMatchesReference: solo and co-run traces, with and without
// decisions and options, and the float and string edge cases.
func TestWriteMatchesReference(t *testing.T) {
	checkWrite(t, testTrace(), testDecisions(), Options{})
	checkWrite(t, testTrace(), nil, Options{Cores: 8, Process: "p<&>", NodeOfCore: func(c int) int { return c / 4 }})
	checkWrite(t, testMultiTrace(), testDecisions(), Options{})
	checkWrite(t, &taskrt.Trace{}, nil, Options{})
	odd := testTrace()
	odd.Tasks[0].LoopName = "a<b>&\u2028\x01\xff"
	odd.Tasks[0].Program = "\"q\""
	odd.Tasks[1].StartSec, odd.Tasks[1].EndSec = 1e-13, 1e16
	odd.Tasks[2].IdealSec, odd.Tasks[2].LocalitySec = 5e-324, math.Copysign(0, -1)
	odd.Resources[2].MCBytes = 1e40
	checkWrite(t, odd, []obs.Decision{{TimeSec: 1e-12, Phase: "<x>"}}, Options{})
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := testTrace()
		bad.Tasks[3].EndSec = v
		checkWrite(t, bad, nil, Options{})
		bad = testTrace()
		bad.Resources[3].Queue = v
		checkWrite(t, bad, nil, Options{})
	}
}

// FuzzWrite: for any trace encoding/json can decode from the input, with
// x and s planted in a slice, a counter and a decision, Write's bytes or
// error are the reference's.
func FuzzWrite(f *testing.F) {
	for _, tr := range []*taskrt.Trace{testTrace(), testMultiTrace()} {
		data, err := json.Marshal(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 1e-7, "<a>")
	}
	f.Add([]byte(`{"tasks":[{"core":3,"node":1,"start":1e-9,"end":2e21,"remote":true,"from":0,"program":"\u2028"}]}`),
		math.Copysign(0, -1), "\xff&")
	f.Fuzz(func(t *testing.T, data []byte, x float64, s string) {
		var tr taskrt.Trace
		if json.Unmarshal(data, &tr) != nil {
			tr = *testTrace()
		}
		// Core and process counts bound the metadata the export writes.
		for i := range tr.Tasks {
			tr.Tasks[i].Core &= 63
		}
		if len(tr.Tasks) > 0 {
			tr.Tasks[0].LoopName, tr.Tasks[0].StartSec = s, x
		}
		tr.Resources = append(tr.Resources, taskrt.ResSample{TimeSec: x, MCBytes: x, Queue: x})
		checkWrite(t, &tr, []obs.Decision{{TimeSec: x, Phase: s}, {TimeSec: x, Phase: s, StealFull: true}}, Options{})
	})
}
