package results

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/obs"
	"github.com/ilan-sched/ilan/internal/taskrt"
)

// referenceWrite is the encoder Write must match byte for byte.
func referenceWrite(f *File) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceRead is the decoder Read must match: encoding/json, then the
// same validation step.
func referenceRead(data []byte) (*File, error) {
	var f File
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// checkEncode fails t unless Write and the reference agree on f: the same
// bytes, or both an error with nothing written.
func checkEncode(t *testing.T, f *File) {
	t.Helper()
	want, wantErr := referenceWrite(f)
	var got bytes.Buffer
	err := f.Write(&got)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Write error %v, encoding/json error %v", err, wantErr)
	case err != nil && got.Len() != 0:
		t.Fatalf("failed Write wrote %d bytes", got.Len())
	case err == nil && !bytes.Equal(got.Bytes(), want):
		i := 0
		for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
			i++
		}
		t.Fatalf("Write differs from encoding/json at byte %d:\n got %q\nwant %q",
			i, got.Bytes()[max(0, i-40):min(got.Len(), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// checkDecode fails t unless Read errors whenever the reference does, and
// otherwise returns the reference's value (bit for bit: -0 is not 0).
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := Read(bytes.NewReader(data))
	want, wantErr := referenceRead(data)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("Read accepted what encoding/json rejects (%v)", wantErr)
		}
		return
	}
	if err != nil {
		return // stricter than the reference: allowed
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Read returned\n%+v\nencoding/json\n%+v", got, want)
	}
	gb, gerr := referenceWrite(got)
	wb, werr := referenceWrite(want)
	if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
		t.Fatalf("decoded values encode differently:\n%s\n%s", gb, wb)
	}
}

// TestCodecFieldNames: each decoder's member list is its type's json tags,
// in order, so the case-folding check sees every field.
func TestCodecFieldNames(t *testing.T) {
	for _, tc := range []struct {
		v     any
		names []string
	}{
		{File{}, fileFields}, {Cell{}, cellFields}, {MultiCell{}, multiCellFields},
		{MultiProgram{}, programFields}, {harness.CoRun{}, coRunFields},
		{obs.Snapshot{}, snapshotFields}, {obs.HistSnapshot{}, histFields}, {obs.Decision{}, decisionFields},
		{taskrt.Trace{}, traceFields}, {taskrt.TaskEvent{}, taskFields}, {taskrt.LoopMark{}, loopFields},
		{taskrt.ResSample{}, resourceFields},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			if tag := typ.Field(i).Tag.Get("json"); tag != "" {
				tags = append(tags, strings.Split(tag, ",")[0])
			}
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%s: decoder names %v, json tags %v", typ, tc.names, tags)
		}
	}
}

// edgeFile holds the values where encoding/json's output is easiest to
// miss: HTML and control characters, line separators, invalid UTF-8, the
// float forms at both ends of the decimal range, -0, nil against empty
// arrays and maps, and every omitempty member both set and unset.
func edgeFile() *File {
	odd := "a<b>&c\u2028\u2029\x00\x1f\t\n\"\\\x7f\xff\xc3é😀"
	tr := &taskrt.Trace{
		Tasks: []taskrt.TaskEvent{
			{LoopID: 1, LoopName: odd, Program: "p<1>", Exec: 1, Lo: -3, Hi: 1 << 40, Core: 2, Node: 0,
				StartSec: 1e-7, EndSec: 1e21, FromCore: -1, IdealSec: 5e-324, CoreSpeedSec: -0.0,
				IdealMemSec: math.MaxFloat64, LocalitySec: -1e-6, InterferenceSec: 0.000001},
			{LoopID: 2, StartSec: 9.999999999999999e20, EndSec: 1e22, Stolen: true, Remote: true, Strict: true},
		},
		Loops:     []taskrt.LoopMark{{LoopID: 1, LoopName: odd, Program: odd, SubmitSec: math.Copysign(0, -1)}},
		Resources: []taskrt.ResSample{{TimeSec: 1.5e-9, Node: 0, MCBytes: 123456789012345678, Queue: 0.1}},
	}
	snap := &obs.Snapshot{
		Runs:     2,
		Counters: map[string]float64{odd: 1, "b": 1e-8, "a{x=\"1\"}": 3},
		Gauges:   map[string]float64{},
		Histograms: map[string]obs.HistSnapshot{"h": {Bounds: []float64{1e-7, 1}, Counts: []uint64{1, 2, math.MaxUint64}, Sum: 3, Count: 3},
			"empty": {}},
		Decisions: []obs.Decision{{TimeSec: 1e-7, Rep: 1, LoopID: 2, K: 3, Program: odd, Phase: "explore",
			Threads: 16, NodeMask: math.MaxUint64, StealFull: true, Score: -2.5e-10}},
		DecisionsTotal: 7,
		Profile:        map[string]float64{"l;compute": 1.25},
	}
	return &File{
		Version: 1, Label: odd, Reps: 1, Seed: math.MaxUint64, Class: "test",
		Cells: []Cell{
			{Bench: odd, Kind: "ilan", Times: []float64{1e-7}, Overheads: []float64{}, WeightedThreads: nil,
				Obs: snap, Trace: tr},
			{Bench: "CG", Kind: "baseline", Obs: &obs.Snapshot{}, Trace: &taskrt.Trace{},
				Attr: &obs.AttrSnapshot{Runs: 1, Task: obs.TaskAttr{Tasks: 3, ElapsedSec: 1e-7},
					Loops:        map[string]obs.LoopAttr{odd: {Executions: 1, CoreSec: 2e21}},
					Interference: map[string]float64{"node0": -0.0}}},
		},
		CoRun: &harness.CoRun{Benches: []string{odd, ""}, ArrivalSpreadSec: 1e-7},
		MultiCells: []MultiCell{
			{Kind: "ilan", Elapsed: []float64{1}, Programs: []MultiProgram{{Program: odd, ArrivalSec: []float64{}}},
				Obs: snap, Trace: tr},
			{Kind: "baseline"},
		},
	}
}

func TestWriteMatchesEncoder(t *testing.T) {
	checkEncode(t, edgeFile())
	checkEncode(t, &File{})
	var f File
	if err := json.Unmarshal(tracedFile(t, nil), &f); err != nil {
		t.Fatal(err)
	}
	checkEncode(t, &f)
}

// TestWriteRejectsNonFinite: NaN and ±Inf anywhere are an error, as in
// encoding/json, and nothing is written.
func TestWriteRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*File){
			"time":     func(f *File) { f.Cells[0].Times[0] = v },
			"task":     func(f *File) { f.Cells[0].Trace.Tasks[1].EndSec = v },
			"resource": func(f *File) { f.Cells[0].Trace.Resources[0].Queue = v },
			"counter":  func(f *File) { f.Cells[0].Obs.Counters["b"] = v },
			"attr":     func(f *File) { f.Cells[1].Attr.Task.ElapsedSec = v },
			"spread":   func(f *File) { f.CoRun.ArrivalSpreadSec = v },
		} {
			f := edgeFile()
			set(f)
			var buf bytes.Buffer
			if err := f.Write(&buf); err == nil || buf.Len() != 0 {
				t.Errorf("%s = %g: err %v, wrote %d bytes", name, v, err, buf.Len())
			}
		}
	}
}

// decodeSeeds are documents on the edges of encoding/json's decoding rules.
var decodeSeeds = []string{
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","Times":[1],"overheads":[0],"weightedThreads":[8]}]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1],"overheads":[0],"weightedThreads":[8],"TIMES":[2]}]}`,
	`{"VERSION":1,"cells":[]}`,
	"{\"version\":1,\"cells\":[{\"bench\":\"CG\",\"\u212aind\":\"ilan\",\"times\":[1],\"overheads\":[0],\"weightedThreads\":[8]}]}",
	`{"version":1,"version":1,"cells":[]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1],"times":[2],"overheads":[0],"weightedThreads":[8]}]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1],"overheads":[0],"weightedThreads":[8],"obs":{"counters":{"a":1,"a":2}}}]}`,
	`{"version":1,"label":null,"seed":null,"cells":[{"bench":null,"kind":"ilan","times":[1,null],"overheads":[0,0],"weightedThreads":[8,8],"obs":null,"trace":null,"attr":null}]}`,
	`{"version":1,"cells":null}`,
	`null`,
	`{"version":1.0,"cells":[]}`,
	`{"version":1e0,"cells":[]}`,
	`{"version":1,"reps":9223372036854775808,"cells":[]}`,
	`{"version":1,"seed":18446744073709551616,"cells":[]}`,
	`{"version":1,"seed":-0,"cells":[]}`,
	`{"version":-0,"cells":[]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1e400],"overheads":[0],"weightedThreads":[8]}]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1e-400],"overheads":[-0],"weightedThreads":[8]}]}`,
	`{"version":1,"label":"\u003c\ud83d\ude00\ud800\udc00\ud800x\udc00\u00e9\/","cells":[]}`,
	`{"version":1,"label":"\ud800\ud800\udc00","cells":[]}`,
	"{\"version\":1,\"label\":\"\xff\xed\xa0\x80\",\"cells\":[]}",
	`{"version":1,"cells":[]} trailing`,
	`{"version":1,"cells":[]}{}`,
	`{"version":1,"cells":[],"extra":{"a":[1,{"b":null}],"c":"\u0041"}}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[1],"overheads":[0],"weightedThreads":[8],"trace":{"tasks":[],"loops":null,"resources":[]}}]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","attr":{"runs":1,"Task":{"tasks":1},"loops":{}}}]}`,
	`{"version":1,"cells":[{"bench":"CG","kind":"ilan","times":[true],"overheads":[0],"weightedThreads":[8]}]}`,
	`{"version":1,"cells":[{"bench":5,"kind":"ilan","times":[1],"overheads":[0],"weightedThreads":[8]}]}`,
}

// TestReadMatchesDecoder: on every seed, Read errors whenever encoding/json
// does, and otherwise returns its value.
func TestReadMatchesDecoder(t *testing.T) {
	for _, doc := range append(decodeSeeds, string(tracedFile(t, nil)), string(edgeFileBytes(t))) {
		checkDecode(t, []byte(doc))
	}
}

// TestReadRejectsCaseVariantsAndDuplicates: the decoder's deliberate
// strictness, where encoding/json would assign a member anyway.
func TestReadRejectsCaseVariantsAndDuplicates(t *testing.T) {
	for _, doc := range decodeSeeds[:6] {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func edgeFileBytes(t testing.TB) []byte {
	f := edgeFile()
	f.Cells[0].WeightedThreads = []float64{1}
	f.Cells[0].Overheads = []float64{0}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEncode: for any File encoding/json can decode from the input, with
// x and s planted in float and string members, Write's bytes or error are
// encoding/json's.
func FuzzEncode(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed, 1e-7, "<a>")
	}
	for _, doc := range decodeSeeds {
		f.Add([]byte(doc), math.Copysign(0, -1), "\u2028\xff")
	}
	f.Add(edgeFileBytes(f), 1e21, "\x00&")
	f.Fuzz(func(t *testing.T, data []byte, x float64, s string) {
		var file File
		if json.Unmarshal(data, &file) != nil {
			file = *edgeFile()
		}
		file.Label = s
		file.Cells = append(file.Cells, Cell{Bench: s, Kind: s, Times: []float64{x},
			Obs:   &obs.Snapshot{Counters: map[string]float64{s: x}, Decisions: []obs.Decision{{Phase: s, Score: x}}},
			Trace: &taskrt.Trace{Tasks: []taskrt.TaskEvent{{LoopName: s, Program: s, StartSec: x, IdealSec: x}}}})
		checkEncode(t, &file)
	})
}

// FuzzDecode: Read errors whenever encoding/json's decoder with the same
// validation does, and otherwise returns its value.
func FuzzDecode(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	for _, doc := range decodeSeeds {
		f.Add([]byte(doc))
	}
	f.Add(edgeFileBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}
