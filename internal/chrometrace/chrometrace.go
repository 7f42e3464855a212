// Package chrometrace converts a taskrt execution trace plus the ILAN
// decision trace into Chrome trace-event JSON, the format the Perfetto UI
// (https://ui.perfetto.dev) loads directly. The mapping:
//
//   - one thread track per simulated core, named "core C (node N)" and
//     sorted by core index; task executions become complete ("X") slices
//     named by loop, colored yellow for NUMA-strict tasks and green for
//     stealable ones;
//   - inter-node steals become flow arrows ("s"/"f" event pairs) from the
//     victim core's track to the slice the thief ran the stolen task in;
//   - ILAN phase transitions and steal-policy flips become global instant
//     ("i") events on a dedicated "scheduler" track;
//   - per-node memory-controller bandwidth and queue-pressure load become
//     counter ("C") tracks derived from the trace's resource samples;
//   - multiprogrammed traces (task events tagged with a program name by
//     the workload runner) group each program's slices under its own
//     process track, so co-running programs read as side-by-side
//     processes in the UI. Untagged (single-program) traces emit the one
//     process exactly as before — byte-identical output.
//
// Timestamps are virtual seconds scaled to microseconds (the unit the
// trace-event format mandates).
package chrometrace

import (
	"fmt"
	"io"

	"github.com/ilan-sched/ilan/internal/jsonio"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// Options tunes the export. The zero value derives everything from the
// trace itself.
type Options struct {
	// Cores is the number of core tracks to emit. 0 = highest core index
	// seen in the trace + 1.
	Cores int
	// NodeOfCore maps a core to its NUMA node for track naming. nil = use
	// the node recorded on each core's first task event.
	NodeOfCore func(core int) int
	// Process names the single emitted process track (default "ilan-sim").
	Process string
}

const (
	pid = 1
	// usec converts virtual seconds to trace-event microseconds.
	usec = 1e6
	// cnameStrict / cnameStealable are Chrome trace colors: strict
	// (NUMA-bound, "yellow") vs stealable ("good" = green).
	cnameStrict    = "yellow"
	cnameStealable = "good"
)

// event is one trace-event object's fixed members, written in this order
// with zero-valued optional members (dur, cat, id, bp, s, cname) left out.
// Its args, when it has any, follow as an object with sorted keys.
type event struct {
	name, ph string
	ts, dur  float64
	pid, tid int
	cat      string
	id       int
	bp, s    string
	cname    string
}

// begin writes e's fixed members and leaves the object open for its args.
func begin(w *jsonio.Writer, e event) {
	w.Begin('{')
	w.Key("name").String(e.name)
	w.Key("ph").String(e.ph)
	w.Key("ts").Float(e.ts)
	if e.dur != 0 {
		w.Key("dur").Float(e.dur)
	}
	w.Key("pid").Int(e.pid)
	w.Key("tid").Int(e.tid)
	if e.cat != "" {
		w.Key("cat").String(e.cat)
	}
	if e.id != 0 {
		w.Key("id").Int(e.id)
	}
	for _, m := range [...]struct{ key, v string }{{"bp", e.bp}, {"s", e.s}, {"cname", e.cname}} {
		if m.v != "" {
			w.Key(m.key).String(m.v)
		}
	}
}

// metadata writes an "M" event whose one arg is a name or a sort index.
func metadata(w *jsonio.Writer, name string, p, tid int, arg string, v any) {
	begin(w, event{name: name, ph: "M", pid: p, tid: tid})
	w.Key("args").Begin('{')
	w.Key(arg)
	switch v := v.(type) {
	case string:
		w.String(v)
	case int:
		w.Int(v)
	}
	w.End('}')
	w.End('}')
}

// Write emits the trace as Chrome trace-event JSON: the bytes
// encoding/json writes for the same events, each event's args in sorted
// key order (reference_test.go holds that reference). decisions may be
// nil (no scheduler instant events); the trace must be non-nil. A NaN or
// infinite time is an error, and then nothing is written.
func Write(out io.Writer, tr *taskrt.Trace, decisions []obs.Decision, opts Options) error {
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

	// A task slice with its args and steal flow takes about 450 bytes and
	// a resource sample's two counters about 220; sized a little above,
	// the writer allocates its buffer once.
	w := jsonio.NewWriter(false)
	w.Grow(4096 + 480*len(tr.Tasks) + 230*len(tr.Resources) + 160*cores*(len(programs)+1))
	w.Begin('{')
	w.Key("displayTimeUnit").String("ms")
	w.Key("traceEvents").Begin('[')

	// Metadata: process name, per-core thread names + sort order, and the
	// scheduler instant-event track. Multiprogram traces repeat the core
	// tracks under each program's process.
	metadata(w, "process_name", pid, 0, "name", opts.Process)
	for i, prog := range programs {
		metadata(w, "process_name", pidOf[prog], 0, "name", opts.Process+"/"+prog)
		metadata(w, "process_sort_index", pidOf[prog], 0, "sort_index", i+1)
	}
	coreTracks := func(p int) {
		for c := 0; c < cores; c++ {
			metadata(w, "thread_name", p, c, "name", fmt.Sprintf("core %d (node %d)", c, nodeName(c)))
			metadata(w, "thread_sort_index", p, c, "sort_index", c)
		}
	}
	if len(programs) == 0 {
		coreTracks(pid)
	}
	for _, prog := range programs {
		coreTracks(pidOf[prog])
	}
	metadata(w, "thread_name", pid, schedTid, "name", "scheduler")
	metadata(w, "thread_sort_index", pid, schedTid, "sort_index", schedTid)

	// Task slices + steal flows. Flow ids are per-steal; the "s" end sits
	// on the victim's track at the slice start time, the "f" end binds to
	// the enclosing slice on the thief's track (bp "e").
	flowID := 0
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		cname := cnameStealable
		if t.Strict {
			cname = cnameStrict
		}
		tpid := pidOf[t.Program]
		begin(w, event{name: t.LoopName, ph: "X", cat: "task",
			ts: t.StartSec * usec, dur: (t.EndSec - t.StartSec) * usec,
			pid: tpid, tid: t.Core, cname: cname})
		// The args carry the slice's attribution breakdown (DESIGN.md
		// §14), visible in the Perfetto slice-details pane. Tracing always
		// enables machine attribution, so these args appear in every
		// exported trace, which keeps the export byte-identical with -attr
		// on or off.
		w.Key("args").Begin('{')
		w.Key("coreSpeedSec").Float(t.CoreSpeedSec)
		w.Key("exec").Int(t.Exec)
		w.Key("from").Int(t.FromCore)
		w.Key("hi").Int(t.Hi)
		w.Key("idealMemSec").Float(t.IdealMemSec)
		w.Key("idealSec").Float(t.IdealSec)
		w.Key("interferenceSec").Float(t.InterferenceSec)
		w.Key("lo").Int(t.Lo)
		w.Key("localitySec").Float(t.LocalitySec)
		w.Key("loop").Int(t.LoopID)
		w.Key("remote").Bool(t.Remote)
		w.Key("stolen").Bool(t.Stolen)
		w.Key("strict").Bool(t.Strict)
		w.End('}')
		w.End('}')
		if t.Remote && t.FromCore >= 0 {
			// Steals never cross programs (a runtime invariant), so both
			// flow ends live in the same process.
			flowID++
			begin(w, event{name: "steal", ph: "s", cat: "steal", id: flowID,
				ts: t.StartSec * usec, pid: tpid, tid: t.FromCore})
			w.End('}')
			begin(w, event{name: "steal", ph: "f", cat: "steal", id: flowID, bp: "e",
				ts: t.StartSec * usec, pid: tpid, tid: t.Core})
			w.End('}')
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
			begin(w, event{name: fmt.Sprintf("loop %d → %s", d.LoopID, d.Phase),
				ph: "i", s: "g", cat: "scheduler", ts: d.TimeSec * usec, pid: pid, tid: schedTid})
			w.Key("args").Begin('{')
			w.Key("k").Int(d.K)
			w.Key("loop").Int(d.LoopID)
			w.Key("phase").String(d.Phase)
			w.Key("stealFull").Bool(d.StealFull)
			w.Key("threads").Int(d.Threads)
			w.End('}')
			w.End('}')
		}
		if st.seen && st.full != d.StealFull {
			begin(w, event{name: fmt.Sprintf("loop %d steal→%s", d.LoopID, stealName(d.StealFull)),
				ph: "i", s: "g", cat: "scheduler", ts: d.TimeSec * usec, pid: pid, tid: schedTid})
			w.Key("args").Begin('{')
			w.Key("k").Int(d.K)
			w.Key("loop").Int(d.LoopID)
			w.Key("stealFull").Bool(d.StealFull)
			w.End('}')
			w.End('}')
		}
		last[d.LoopID] = loopState{phase: d.Phase, full: d.StealFull, seen: true}
	}

	// Counter tracks: per-node MC bandwidth (GB/s, from cumulative byte
	// deltas between successive samples) and instantaneous queue load.
	// Each node's track names are built once.
	type nodeTracks struct {
		bandwidth, queue string
		prev             taskrt.ResSample
		sampled          bool
	}
	nodes := make(map[int]*nodeTracks)
	for _, s := range tr.Resources {
		n := nodes[s.Node]
		if n == nil {
			n = &nodeTracks{bandwidth: fmt.Sprintf("mc bandwidth node %d", s.Node),
				queue: fmt.Sprintf("mc queue node %d", s.Node)}
			nodes[s.Node] = n
		}
		if n.sampled && s.TimeSec > n.prev.TimeSec {
			begin(w, event{name: n.bandwidth, ph: "C", ts: s.TimeSec * usec, pid: pid})
			w.Key("args").Begin('{')
			w.Key("GB/s").Float((s.MCBytes - n.prev.MCBytes) / (s.TimeSec - n.prev.TimeSec) / 1e9)
			w.End('}')
			w.End('}')
		}
		n.prev, n.sampled = s, true
		begin(w, event{name: n.queue, ph: "C", ts: s.TimeSec * usec, pid: pid})
		w.Key("args").Begin('{')
		w.Key("load").Float(s.Queue)
		w.End('}')
		w.End('}')
	}

	w.End(']')
	w.End('}')
	if err := w.Err(); err != nil {
		return fmt.Errorf("chrometrace: %w", err)
	}
	w.Newline()
	_, err := out.Write(w.Bytes())
	return err
}

func stealName(full bool) string {
	if full {
		return "full"
	}
	return "hierarchical"
}
