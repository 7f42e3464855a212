// Command benchjson appends one `go test -bench` run, read as text from
// stdin, to a JSON benchmark trajectory (BENCH_hotpath.json), so results
// accumulate across commits instead of replacing each other.
//
// Usage:
//
//	go test -bench='Engine|Campaign' -benchmem -run=NONE . |
//		benchjson -commit "$(git rev-parse --short HEAD)" -file BENCH_hotpath.json
//
// Every benchmark result line becomes one object carrying the iteration
// count and a metric map keyed by unit ("ns/op", "B/op", "allocs/op", and
// any custom b.ReportMetric units like "speedup" or "vsec"). Environment
// header lines (goos, goarch, pkg, cpu) are carried through verbatim. The
// run becomes a new entry, stamped with the commit and the UTC date, at
// the end of the file's entries; a missing file starts a new trajectory. A
// file that is not a trajectory is an error and is left as it is.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ilan-sched/ilan/internal/fsatomic"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Entry is one benchmark run at one commit. Note explains an entry whose
// values were not produced by this command (backfilled points).
type Entry struct {
	Commit  string            `json:"commit"`
	Date    string            `json:"date"`
	Note    string            `json:"note,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
	Results []Result          `json:"results"`
}

// Trajectory is the whole file: runs in the order they were appended.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

func main() {
	commit := flag.String("commit", "", "commit the run measured (required)")
	file := flag.String("file", "", "trajectory file to append the run to (required)")
	flag.Parse()
	if *commit == "" || *file == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: go test -bench ... | benchjson -commit SHA -file BENCH_hotpath.json")
		os.Exit(2)
	}
	e, err := parseRun(os.Stdin)
	if err == nil {
		e.Commit = *commit
		e.Date = time.Now().UTC().Format("2006-01-02")
		err = appendEntry(*file, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseRun reads `go test -bench` output into an entry without commit and
// date. Output with no benchmark line is an error: it would append an
// empty point.
func parseRun(r io.Reader) (Entry, error) {
	e := Entry{Env: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			e.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				e.Results = append(e.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Entry{}, fmt.Errorf("reading benchmark output: %w", err)
	}
	if len(e.Results) == 0 {
		return Entry{}, errors.New("no benchmark results on stdin")
	}
	return e, nil
}

// parseLine decodes "BenchmarkName-8  1234  56.7 ns/op  0 B/op ..." into a
// Result; value/unit pairs follow the iteration count.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// appendEntry adds e to the trajectory at path and rewrites it atomically.
func appendEntry(path string, e Entry) error {
	var tr Trajectory
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if tr, err = decodeTrajectory(data); err != nil {
			return fmt.Errorf("%s is not a benchmark trajectory, left unchanged: %w", path, err)
		}
	}
	tr.Entries = append(tr.Entries, e)
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFileBytes(path, append(out, '\n'))
}

// decodeTrajectory accepts exactly one JSON object with an entries list,
// nothing unknown and nothing after it.
func decodeTrajectory(data []byte) (Trajectory, error) {
	var tr Trajectory
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		return Trajectory{}, err
	}
	if dec.More() {
		return Trajectory{}, errors.New("trailing data after the trajectory")
	}
	if tr.Entries == nil {
		return Trajectory{}, errors.New(`no "entries" list`)
	}
	return tr, nil
}
