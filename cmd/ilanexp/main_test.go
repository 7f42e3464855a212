package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
	"github.com/ilan-sched/ilan/internal/topology"
)

// TestCheckFlags: a flag the experiment's row does not accept is a usage
// error; every row accepts the flags it declares.
func TestCheckFlags(t *testing.T) {
	tests := []struct {
		exp   string
		flags []string
		ok    bool
	}{
		{"fig2", nil, true},
		{"fig2", []string{"in"}, true},
		{"fig2", []string{"out", "perfetto", "attr", "bench", "chart"}, true},
		{"all", []string{"in", "chart"}, true},
		{"table1", []string{"out", "bench"}, true},
		{"multi", []string{"in"}, true},
		{"multi", []string{"corun", "spread", "out", "perfetto", "attr"}, true},
		{"oracle", []string{"bench"}, true},
		{"sweep", []string{"bench", "param", "values"}, true},

		{"fig2", []string{"in", "out"}, false},
		{"fig2", []string{"in", "perfetto"}, false},
		{"all", []string{"in", "attr"}, false},
		{"multi", []string{"in", "out"}, false},
		{"fig2", []string{"in", "bench"}, false},
		{"multi", []string{"in", "corun"}, false},
		{"multi", []string{"in", "spread"}, false},
		{"multi", []string{"bench"}, false},
		{"multi", []string{"chart"}, false},
		{"table1", []string{"chart"}, false},
		{"fig2", []string{"corun"}, false},
		{"fig2", []string{"spread"}, false},
		{"oracle", []string{"in"}, false},
		{"oracle", []string{"out"}, false},
		{"oracle", []string{"chart"}, false},
		{"sweep", []string{"in"}, false},
		{"sweep", []string{"out"}, false},
		{"sweep", []string{"perfetto"}, false},
		{"sweep", []string{"attr"}, false},
		{"sweep", []string{"chart"}, false},
		{"fig2", []string{"param"}, false},
		{"all", []string{"values"}, false},
		{"multi", []string{"param"}, false},
		{"oracle", []string{"values"}, false},
	}
	for _, tc := range tests {
		e, ok := harness.LookupExperiment(tc.exp)
		if !ok {
			t.Fatalf("no experiment %q", tc.exp)
		}
		set := map[string]bool{}
		for _, f := range tc.flags {
			set[f] = true
		}
		if err := checkFlags(e, set); (err == nil) != tc.ok {
			t.Errorf("-exp %s with %v: err = %v, want ok = %v", tc.exp, tc.flags, err, tc.ok)
		}
	}
}

// TestDocumentEntry: a -bench @path entry runs the committed example on
// every preset topology, and each way it can fail names the file.
func TestDocumentEntry(t *testing.T) {
	const example = "../../testdata/looplang/example.json"
	for name, spec := range topology.Presets() {
		b, err := document(example, spec)
		if err != nil || b.Name != "example" || b.Digest == "" {
			t.Errorf("%s: document(%s) = %q, digest %q, err %v", name, example, b.Name, b.Digest, err)
		}
	}
	data, err := os.ReadFile(example)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bad := map[string]string{
		"missing.json": "",
		"broken.json":  `{"name":`,
		"invalid.json": strings.Replace(string(data), `"steps": 30`, `"steps": 0`, 1),
		"node7.json":   strings.Replace(string(data), `"placement": "blocked"}`, `"placement": "node:7"}`, 1),
		"small.json":   strings.Replace(string(data), `"sizeMB": 192`, `"sizeMB": 100`, 1),
	}
	for file, content := range bad {
		path := filepath.Join(dir, file)
		if content != "" {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := document(path, topology.SmallTest()); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: err = %v, want an error naming the file", file, err)
		}
	}
}

// TestBenchList: -bench takes built-in names and documents, each once.
// Every rejection is a usage error naming the entry.
func TestBenchList(t *testing.T) {
	const example = "@../../testdata/looplang/example.json"
	tests := []struct {
		list    string
		want    []string // benchmark names in order, or nil for an error
		errName string   // what the error must name
	}{
		{"CG", []string{"CG"}, ""},
		{"CG, FT,SP", []string{"CG", "FT", "SP"}, ""},
		{"CG," + example, []string{"CG", "example"}, ""},
		{"CG,CG", nil, `"CG"`},
		{"FT,CG,FT", nil, `"FT"`},
		{"CG,XX", nil, `"XX"`},
		{example + "," + example, nil, "example.json"},
	}
	for _, tc := range tests {
		got, err := benches(tc.list, topology.SmallTest())
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errName) {
				t.Errorf("-bench %s: err = %v, want an error naming %s", tc.list, err, tc.errName)
			}
			continue
		}
		var names []string
		for _, b := range got {
			names = append(names, b.Name)
		}
		if err != nil || strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("-bench %s = %v, %v; want %v", tc.list, names, err, tc.want)
		}
	}
}

// TestFlagValues: a flag value the simulation would reinterpret, repeat or
// panic on is a usage error. The binary exits 2 with nothing on stdout and
// neither the -out file nor the cache directory created. Values at the
// edges of each range run.
func TestFlagValues(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ilanexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, cache := filepath.Join(dir, "o.json"), filepath.Join(dir, "cache")
	sweep := []string{"-exp", "sweep", "-bench", "Matmul", "-topo", "smalltest", "-param"}
	fig2 := []string{"-exp", "fig2", "-bench", "Matmul", "-out", out, "-disturb"}
	multi := []string{"-exp", "multi", "-topo", "smalltest", "-out", out}
	tests := []struct {
		args []string
		ok   bool
	}{
		{append(sweep, "beta", "-values", "-1"), false},
		{append(sweep, "alpha", "-values", "-1"), false},
		{append(sweep, "alpha", "-values", "NaN"), false},
		{append(sweep, "beta", "-values", "Inf"), false},
		{append(sweep, "controllerbw", "-values", "0"), false},
		{append(sweep, "corebw", "-values", "-5e9"), false},
		{append(sweep, "linkbw", "-values", "NaN"), false},
		{append(sweep, "beta", "-values", "0,0"), false},
		{append(sweep, "controllerbw", "-values", "2e10,4e10,2e10"), false},
		{append(sweep, "alpha"), false},
		{append(sweep, "controllerbw"), false},
		{append(sweep, "corebw"), false},
		{append(sweep, "linkbw"), false},
		{append(fig2, "99"), false},
		{append(fig2, "4", "-topo", "smalltest"), false},
		{append(fig2, "-5"), false},
		{append(multi, "-spread", "NaN"), false},
		{append(multi, "-spread", "Inf"), false},
		{append(multi, "-corun", "CG,XX"), false},
		{append(multi, "-corun", "CG,"), false},
		{append(multi, "-corun", ""), false},

		{append(sweep, "beta", "-values", "0,0.003"), true},
		{append(sweep, "beta"), true},
		{append(sweep, "alpha", "-values", "0"), true},
		{append(sweep, "linkbw", "-values", "5e9,5e10"), true},
		{append(fig2, "3", "-topo", "smalltest"), true},
		{append(fig2, "-1", "-topo", "smalltest"), true},
		{append(multi, "-corun", "Matmul,Matmul", "-spread", "0.05"), true},
	}
	for _, tc := range tests {
		cmd := exec.Command(bin, append(tc.args, "-class", "test", "-reps", "1", "-q", "-cache-dir", cache)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if tc.ok {
			if err != nil || stdout.Len() == 0 {
				t.Errorf("%v: err = %v, %d bytes of stdout (stderr: %s)", tc.args, err, stdout.Len(), stderr.String())
			}
			os.RemoveAll(out)
			os.RemoveAll(cache)
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit 2 (stderr: %s)", tc.args, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", tc.args, stdout.Len())
		}
		for _, path := range []string{out, cache} {
			if _, err := os.Stat(path); err == nil {
				t.Errorf("%v: created %s", tc.args, path)
				os.RemoveAll(path)
			}
		}
	}
}
