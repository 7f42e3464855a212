package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: github.com/ilan-sched/ilan
cpu: Test CPU @ 1.00GHz
BenchmarkEngineEvents/pending=1-2   	 2000000	        27.87 ns/op	       0 B/op	       0 allocs/op
BenchmarkFullCampaignCG-2   	     100	  10000000 ns/op	  420000 B/op	    1900 allocs/op
PASS
ok  	github.com/ilan-sched/ilan	3.000s
`

func TestParseRun(t *testing.T) {
	e, err := parseRun(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if e.Env["cpu"] != "Test CPU @ 1.00GHz" || e.Env["pkg"] != "github.com/ilan-sched/ilan" {
		t.Errorf("env = %v", e.Env)
	}
	want := []Result{
		{Name: "BenchmarkEngineEvents/pending=1-2", Iterations: 2000000,
			Metrics: map[string]float64{"ns/op": 27.87, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkFullCampaignCG-2", Iterations: 100,
			Metrics: map[string]float64{"ns/op": 10000000, "B/op": 420000, "allocs/op": 1900}},
	}
	if !reflect.DeepEqual(e.Results, want) {
		t.Errorf("results = %+v, want %+v", e.Results, want)
	}
	if _, err := parseRun(strings.NewReader("PASS\nok  \tpkg\t0.1s\n")); err == nil {
		t.Error("output without benchmark lines parsed as a run")
	}
}

// TestAppendKeepsEarlierEntries: each run lands after the earlier ones,
// which stay byte-for-byte what they were.
func TestAppendKeepsEarlierEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	run, err := parseRun(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	first, second := run, run
	first.Commit, first.Date = "aaaaaaa", "2026-01-01"
	second.Commit, second.Date = "bbbbbbb", "2026-01-02"
	if err := appendEntry(path, first); err != nil {
		t.Fatalf("starting a missing trajectory: %v", err)
	}
	if err := appendEntry(path, second); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := decodeTrajectory(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Entries, []Entry{first, second}) {
		t.Fatalf("entries = %+v, want the two runs in order", tr.Entries)
	}
}

// TestMalformedTrajectoryIsLeftAlone: a file that is not a trajectory —
// including the single-snapshot format this command used to write — is an
// error, and its bytes are not touched.
func TestMalformedTrajectoryIsLeftAlone(t *testing.T) {
	run, err := parseRun(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	run.Commit, run.Date = "ccccccc", "2026-01-03"
	for name, content := range map[string]string{
		"empty":      "",
		"not json":   "BenchmarkX 1 2 ns/op\n",
		"truncated":  `{"entries": [`,
		"snapshot":   `{"env": {"goos": "linux"}, "results": []}`,
		"no entries": `{}`,
		"trailing":   `{"entries": []} {"entries": []}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := appendEntry(path, run); err == nil {
				t.Fatal("appended to a malformed trajectory")
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte(content)) {
				t.Fatalf("malformed file was rewritten: %q", got)
			}
		})
	}
}
