package results

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/jsonio"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// The results codec writes and reads a File without reflection. Its
// contract, which codec_test.go checks against encoding/json over fuzzed
// inputs: Write's bytes are json.Encoder's with SetIndent("", "  "), and
// Read returns exactly the value a json.Decoder would, or an error, and
// errors whenever that decoder does. Field names and order follow the
// types' json tags, and each `omitempty` is honoured as encoding/json
// honours it.

// sizeHint is a little above the encoded size of f's task traces, which
// are nearly all of a traced file: about 650 bytes per indented task
// event and 150 per resource sample. The writer then allocates its buffer
// once instead of doubling it through a file of tens of MB.
func sizeHint(f *File) int {
	n := 4096
	add := func(tr *taskrt.Trace) {
		if tr != nil {
			n += 700*len(tr.Tasks) + 160*len(tr.Resources) + 300*len(tr.Loops)
		}
	}
	for i := range f.Cells {
		add(f.Cells[i].Trace)
	}
	for i := range f.MultiCells {
		add(f.MultiCells[i].Trace)
	}
	return n
}

// encodeFile appends f's JSON document to w.
func encodeFile(w *jsonio.Writer, f *File) {
	w.Begin('{')
	w.Key("version").Int(f.Version)
	if f.Label != "" {
		w.Key("label").String(f.Label)
	}
	w.Key("reps").Int(f.Reps)
	w.Key("seed").Uint(f.Seed)
	w.Key("class").String(f.Class)
	w.Key("cells")
	if f.Cells == nil {
		w.Null()
	} else {
		w.Begin('[')
		for i := range f.Cells {
			encodeCell(w, &f.Cells[i])
		}
		w.End(']')
	}
	if f.CoRun != nil {
		w.Key("corun").Begin('{')
		w.Key("benches")
		encodeStrings(w, f.CoRun.Benches)
		if f.CoRun.ArrivalSpreadSec != 0 {
			w.Key("arrivalSpreadSec").Float(f.CoRun.ArrivalSpreadSec)
		}
		w.End('}')
	}
	if len(f.MultiCells) > 0 {
		w.Key("multiCells").Begin('[')
		for i := range f.MultiCells {
			encodeMultiCell(w, &f.MultiCells[i])
		}
		w.End(']')
	}
	w.End('}')
}

func encodeCell(w *jsonio.Writer, c *Cell) {
	w.Begin('{')
	w.Key("bench").String(c.Bench)
	w.Key("kind").String(c.Kind)
	w.Key("times").Floats(c.Times)
	w.Key("overheads").Floats(c.Overheads)
	w.Key("weightedThreads").Floats(c.WeightedThreads)
	encodeObs(w, c.Obs)
	encodeTrace(w, c.Trace)
	if c.Attr != nil {
		// The attribution report is a small leaf of the sidecar file.
		w.Key("attr")
		b, err := json.MarshalIndent(c.Attr, strings.Repeat("  ", w.Depth()), "  ")
		if err != nil {
			w.Fail(err)
		}
		w.Raw(b)
	}
	w.End('}')
}

func encodeMultiCell(w *jsonio.Writer, c *MultiCell) {
	w.Begin('{')
	w.Key("kind").String(c.Kind)
	w.Key("elapsed").Floats(c.Elapsed)
	w.Key("programs")
	if c.Programs == nil {
		w.Null()
	} else {
		w.Begin('[')
		for _, p := range c.Programs {
			w.Begin('{')
			w.Key("program").String(p.Program)
			w.Key("bench").String(p.Bench)
			w.Key("arrivalSec").Floats(p.ArrivalSec)
			w.Key("startSec").Floats(p.StartSec)
			w.Key("makespanSec").Floats(p.MakespanSec)
			w.End('}')
		}
		w.End(']')
	}
	encodeObs(w, c.Obs)
	encodeTrace(w, c.Trace)
	w.End('}')
}

func encodeStrings(w *jsonio.Writer, ss []string) {
	if ss == nil {
		w.Null()
		return
	}
	w.Begin('[')
	for _, s := range ss {
		w.String(s)
	}
	w.End(']')
}

// encodeObs writes a cell's "obs" member, omitted when s is nil.
func encodeObs(w *jsonio.Writer, s *obs.Snapshot) {
	if s == nil {
		return
	}
	w.Key("obs").Begin('{')
	w.Key("runs").Int(s.Runs)
	encodeFloatMap(w, "counters", s.Counters)
	encodeFloatMap(w, "gauges", s.Gauges)
	if len(s.Histograms) > 0 {
		w.Key("histograms").Begin('{')
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			w.Key(name).Begin('{')
			w.Key("bounds").Floats(h.Bounds)
			w.Key("counts")
			if h.Counts == nil {
				w.Null()
			} else {
				w.Begin('[')
				for _, n := range h.Counts {
					w.Uint(n)
				}
				w.End(']')
			}
			w.Key("sum").Float(h.Sum)
			w.Key("count").Uint(h.Count)
			w.End('}')
		}
		w.End('}')
	}
	if len(s.Decisions) > 0 {
		w.Key("decisions").Begin('[')
		for i := range s.Decisions {
			d := &s.Decisions[i]
			w.Begin('{')
			w.Key("t").Float(d.TimeSec)
			w.Key("rep").Int(d.Rep)
			w.Key("loop").Int(d.LoopID)
			w.Key("k").Int(d.K)
			if d.Program != "" {
				w.Key("program").String(d.Program)
			}
			w.Key("phase").String(d.Phase)
			w.Key("threads").Int(d.Threads)
			w.Key("mask").Uint(d.NodeMask)
			w.Key("stealFull").Bool(d.StealFull)
			w.Key("score").Float(d.Score)
			w.End('}')
		}
		w.End(']')
	}
	if s.DecisionsTotal != 0 {
		w.Key("decisionsTotal").Uint(s.DecisionsTotal)
	}
	encodeFloatMap(w, "profile", s.Profile)
	w.End('}')
}

// encodeFloatMap writes an omitempty map member with its keys sorted, as
// encoding/json orders them.
func encodeFloatMap(w *jsonio.Writer, key string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	w.Key(key).Begin('{')
	for _, k := range sortedKeys(m) {
		w.Key(k).Float(m[k])
	}
	w.End('}')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encodeTrace writes a cell's "trace" member, omitted when tr is nil.
func encodeTrace(w *jsonio.Writer, tr *taskrt.Trace) {
	if tr == nil {
		return
	}
	w.Key("trace").Begin('{')
	w.Key("tasks")
	if tr.Tasks == nil {
		w.Null()
	} else {
		w.Begin('[')
		for i := range tr.Tasks {
			encodeTask(w, &tr.Tasks[i])
		}
		w.End(']')
	}
	w.Key("loops")
	if tr.Loops == nil {
		w.Null()
	} else {
		w.Begin('[')
		for i := range tr.Loops {
			l := &tr.Loops[i]
			w.Begin('{')
			w.Key("loop").Int(l.LoopID)
			w.Key("loopName").String(l.LoopName)
			if l.Program != "" {
				w.Key("program").String(l.Program)
			}
			w.Key("exec").Int(l.Exec)
			w.Key("submit").Float(l.SubmitSec)
			w.Key("done").Float(l.DoneSec)
			w.Key("threads").Int(l.Threads)
			w.End('}')
		}
		w.End(']')
	}
	if len(tr.Resources) > 0 {
		w.Key("resources").Begin('[')
		for i := range tr.Resources {
			r := &tr.Resources[i]
			w.Begin('{')
			w.Key("t").Float(r.TimeSec)
			w.Key("node").Int(r.Node)
			w.Key("mcBytes").Float(r.MCBytes)
			w.Key("queue").Float(r.Queue)
			w.End('}')
		}
		w.End(']')
	}
	w.End('}')
}

func encodeTask(w *jsonio.Writer, t *taskrt.TaskEvent) {
	w.Begin('{')
	w.Key("loop").Int(t.LoopID)
	w.Key("loopName").String(t.LoopName)
	if t.Program != "" {
		w.Key("program").String(t.Program)
	}
	w.Key("exec").Int(t.Exec)
	w.Key("lo").Int(t.Lo)
	w.Key("hi").Int(t.Hi)
	w.Key("core").Int(t.Core)
	w.Key("node").Int(t.Node)
	w.Key("start").Float(t.StartSec)
	w.Key("end").Float(t.EndSec)
	w.Key("stolen").Bool(t.Stolen)
	w.Key("remote").Bool(t.Remote)
	w.Key("strict").Bool(t.Strict)
	w.Key("from").Int(t.FromCore)
	for _, term := range [...]struct {
		key string
		v   float64
	}{
		{"idealSec", t.IdealSec}, {"coreSpeedSec", t.CoreSpeedSec}, {"idealMemSec", t.IdealMemSec},
		{"localitySec", t.LocalitySec}, {"interferenceSec", t.InterferenceSec},
	} {
		if term.v != 0 {
			w.Key(term.key).Float(term.v)
		}
	}
	w.End('}')
}

// The member names of each decoded type, in declaration order.
var (
	fileFields      = []string{"version", "label", "reps", "seed", "class", "cells", "corun", "multiCells"}
	cellFields      = []string{"bench", "kind", "times", "overheads", "weightedThreads", "obs", "trace", "attr"}
	multiCellFields = []string{"kind", "elapsed", "programs", "obs", "trace"}
	programFields   = []string{"program", "bench", "arrivalSec", "startSec", "makespanSec"}
	coRunFields     = []string{"benches", "arrivalSpreadSec"}
	snapshotFields  = []string{"runs", "counters", "gauges", "histograms", "decisions", "decisionsTotal", "profile"}
	histFields      = []string{"bounds", "counts", "sum", "count"}
	decisionFields  = []string{"t", "rep", "loop", "k", "program", "phase", "threads", "mask", "stealFull", "score"}
	traceFields     = []string{"tasks", "loops", "resources"}
	taskFields      = []string{"loop", "loopName", "program", "exec", "lo", "hi", "core", "node", "start", "end",
		"stolen", "remote", "strict", "from", "idealSec", "coreSpeedSec", "idealMemSec", "localitySec", "interferenceSec"}
	loopFields     = []string{"loop", "loopName", "program", "exec", "submit", "done", "threads"}
	resourceFields = []string{"t", "node", "mcBytes", "queue"}
)

// decodeFile reads a whole results document.
func decodeFile(data []byte) (*File, error) {
	s := jsonio.NewScanner(data)
	var f File
	err := s.Fields(fileFields, func(name string) (err error) {
		switch name {
		case "version":
			f.Version, err = s.Int()
		case "label":
			f.Label, err = s.String()
		case "reps":
			f.Reps, err = s.Int()
		case "seed":
			f.Seed, err = s.Uint()
		case "class":
			f.Class, err = s.String()
		case "cells":
			f.Cells, err = decodeSlice(s, func(c *Cell) error { return decodeCell(s, c) })
		case "corun":
			f.CoRun, err = decodePtr(s, func(co *harness.CoRun) error {
				return s.Fields(coRunFields, func(name string) (err error) {
					if name == "benches" {
						co.Benches, err = decodeSlice(s, func(b *string) (err error) {
							*b, err = s.String()
							return err
						})
					} else {
						co.ArrivalSpreadSec, err = s.Float()
					}
					return err
				})
			})
		case "multiCells":
			f.MultiCells, err = decodeSlice(s, func(c *MultiCell) error { return decodeMultiCell(s, c) })
		}
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// decodeSlice reads an array whose elements elem decodes in place: null
// is a nil slice and [] an empty one, as json.Unmarshal stores them. The
// slice grows by doubling.
func decodeSlice[T any](s *jsonio.Scanner, elem func(*T) error) ([]T, error) {
	out := []T{}
	null, err := s.Array(func() error {
		if len(out) == cap(out) {
			out = append(make([]T, 0, max(2*cap(out), 4)), out...)
		}
		out = out[:len(out)+1]
		return elem(&out[len(out)-1])
	})
	if null || err != nil {
		return nil, err
	}
	return out, nil
}

// decodePtr reads an object into a new T, or null into nil.
func decodePtr[T any](s *jsonio.Scanner, fields func(*T) error) (*T, error) {
	if null, err := s.Null(); null || err != nil {
		return nil, err
	}
	v := new(T)
	if err := fields(v); err != nil {
		return nil, err
	}
	return v, nil
}

// decodeMap reads an object into a map whose values elem decodes: null is
// a nil map and {} an empty one; a name given twice keeps its last value.
func decodeMap[V any](s *jsonio.Scanner, elem func() (V, error)) (map[string]V, error) {
	m := map[string]V{}
	null, err := s.Object(func(name []byte) error {
		key := string(name)
		v, err := elem()
		m[key] = v
		return err
	})
	if null || err != nil {
		return nil, err
	}
	return m, nil
}

func decodeCell(s *jsonio.Scanner, c *Cell) error {
	return s.Fields(cellFields, func(name string) (err error) {
		switch name {
		case "bench":
			c.Bench, err = s.String()
		case "kind":
			c.Kind, err = s.String()
		case "times":
			c.Times, err = s.Floats()
		case "overheads":
			c.Overheads, err = s.Floats()
		case "weightedThreads":
			c.WeightedThreads, err = s.Floats()
		case "obs":
			c.Obs, err = decodeSnapshot(s)
		case "trace":
			c.Trace, err = decodeTrace(s)
		case "attr":
			// The attribution report is a small leaf of the sidecar file,
			// read by encoding/json from its validated bytes.
			var raw []byte
			if raw, err = s.Raw(); err == nil {
				err = json.Unmarshal(raw, &c.Attr)
			}
		}
		return err
	})
}

func decodeMultiCell(s *jsonio.Scanner, c *MultiCell) error {
	return s.Fields(multiCellFields, func(name string) (err error) {
		switch name {
		case "kind":
			c.Kind, err = s.String()
		case "elapsed":
			c.Elapsed, err = s.Floats()
		case "programs":
			c.Programs, err = decodeSlice(s, func(p *MultiProgram) error {
				return s.Fields(programFields, func(name string) (err error) {
					switch name {
					case "program":
						p.Program, err = s.String()
					case "bench":
						p.Bench, err = s.String()
					case "arrivalSec":
						p.ArrivalSec, err = s.Floats()
					case "startSec":
						p.StartSec, err = s.Floats()
					case "makespanSec":
						p.MakespanSec, err = s.Floats()
					}
					return err
				})
			})
		case "obs":
			c.Obs, err = decodeSnapshot(s)
		case "trace":
			c.Trace, err = decodeTrace(s)
		}
		return err
	})
}

func decodeSnapshot(s *jsonio.Scanner) (*obs.Snapshot, error) {
	return decodePtr(s, func(o *obs.Snapshot) error {
		return s.Fields(snapshotFields, func(name string) (err error) {
			switch name {
			case "runs":
				o.Runs, err = s.Int()
			case "counters":
				o.Counters, err = decodeMap(s, s.Float)
			case "gauges":
				o.Gauges, err = decodeMap(s, s.Float)
			case "histograms":
				o.Histograms, err = decodeMap(s, func() (h obs.HistSnapshot, err error) {
					err = s.Fields(histFields, func(name string) (err error) {
						switch name {
						case "bounds":
							h.Bounds, err = s.Floats()
						case "counts":
							h.Counts, err = decodeSlice(s, func(n *uint64) (err error) {
								*n, err = s.Uint()
								return err
							})
						case "sum":
							h.Sum, err = s.Float()
						case "count":
							h.Count, err = s.Uint()
						}
						return err
					})
					return h, err
				})
			case "decisions":
				o.Decisions, err = decodeSlice(s, func(d *obs.Decision) error { return decodeDecision(s, d) })
			case "decisionsTotal":
				o.DecisionsTotal, err = s.Uint()
			case "profile":
				o.Profile, err = decodeMap(s, s.Float)
			}
			return err
		})
	})
}

func decodeDecision(s *jsonio.Scanner, d *obs.Decision) error {
	return s.Fields(decisionFields, func(name string) (err error) {
		switch name {
		case "t":
			d.TimeSec, err = s.Float()
		case "rep":
			d.Rep, err = s.Int()
		case "loop":
			d.LoopID, err = s.Int()
		case "k":
			d.K, err = s.Int()
		case "program":
			d.Program, err = s.String()
		case "phase":
			d.Phase, err = s.String()
		case "threads":
			d.Threads, err = s.Int()
		case "mask":
			d.NodeMask, err = s.Uint()
		case "stealFull":
			d.StealFull, err = s.Bool()
		case "score":
			d.Score, err = s.Float()
		}
		return err
	})
}

func decodeTrace(s *jsonio.Scanner) (*taskrt.Trace, error) {
	return decodePtr(s, func(tr *taskrt.Trace) error {
		return s.Fields(traceFields, func(name string) (err error) {
			switch name {
			case "tasks":
				tr.Tasks, err = decodeSlice(s, func(t *taskrt.TaskEvent) error { return decodeTask(s, t) })
			case "loops":
				tr.Loops, err = decodeSlice(s, func(l *taskrt.LoopMark) error { return decodeLoop(s, l) })
			case "resources":
				tr.Resources, err = decodeSlice(s, func(r *taskrt.ResSample) error {
					return s.Fields(resourceFields, func(name string) (err error) {
						switch name {
						case "t":
							r.TimeSec, err = s.Float()
						case "node":
							r.Node, err = s.Int()
						case "mcBytes":
							r.MCBytes, err = s.Float()
						case "queue":
							r.Queue, err = s.Float()
						}
						return err
					})
				})
			}
			return err
		})
	})
}

func decodeTask(s *jsonio.Scanner, t *taskrt.TaskEvent) error {
	return s.Fields(taskFields, func(name string) (err error) {
		switch name {
		case "loop":
			t.LoopID, err = s.Int()
		case "loopName":
			t.LoopName, err = s.String()
		case "program":
			t.Program, err = s.String()
		case "exec":
			t.Exec, err = s.Int()
		case "lo":
			t.Lo, err = s.Int()
		case "hi":
			t.Hi, err = s.Int()
		case "core":
			t.Core, err = s.Int()
		case "node":
			t.Node, err = s.Int()
		case "start":
			t.StartSec, err = s.Float()
		case "end":
			t.EndSec, err = s.Float()
		case "stolen":
			t.Stolen, err = s.Bool()
		case "remote":
			t.Remote, err = s.Bool()
		case "strict":
			t.Strict, err = s.Bool()
		case "from":
			t.FromCore, err = s.Int()
		case "idealSec":
			t.IdealSec, err = s.Float()
		case "coreSpeedSec":
			t.CoreSpeedSec, err = s.Float()
		case "idealMemSec":
			t.IdealMemSec, err = s.Float()
		case "localitySec":
			t.LocalitySec, err = s.Float()
		case "interferenceSec":
			t.InterferenceSec, err = s.Float()
		}
		return err
	})
}

func decodeLoop(s *jsonio.Scanner, l *taskrt.LoopMark) error {
	return s.Fields(loopFields, func(name string) (err error) {
		switch name {
		case "loop":
			l.LoopID, err = s.Int()
		case "loopName":
			l.LoopName, err = s.String()
		case "program":
			l.Program, err = s.String()
		case "exec":
			l.Exec, err = s.Int()
		case "submit":
			l.SubmitSec, err = s.Float()
		case "done":
			l.DoneSec, err = s.Float()
		case "threads":
			l.Threads, err = s.Int()
		}
		return err
	})
}

// readAll reads r to the end into one buffer that grows by doubling (the
// input is a whole results file, often tens of MB), sized up front when r
// reports its length.
func readAll(r io.Reader) ([]byte, error) {
	n := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		n = v.Len()
	case *os.File:
		if st, err := v.Stat(); err == nil && st.Mode().IsRegular() {
			n = int(st.Size())
		}
	}
	var buf bytes.Buffer
	buf.Grow(n + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
