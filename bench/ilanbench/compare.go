package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// readRecords reads a -out file: one run record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of a comparison, for one (workload, metric) pair.
const (
	within     = "within"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// verdict compares the medians of set b against set a. A set whose
// quartile spread exceeds the bound cannot resolve a change of that size,
// unless every run of b reads better than every run of a. setup_s is
// judged by its medians alone: a sub-millisecond set-up is timed only a
// few times per run, so its spread is not held to the bound.
func verdict(a, b []float64, m metricSpec) (string, float64) {
	ma, mb := median(a), median(b)
	rel := 0.0
	if ma != 0 {
		rel = (mb - ma) / ma
	}
	worsening := rel
	if m.Better == "higher" {
		worsening = -rel
	}
	if m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound) {
		if allBetter(a, b, m.Better) {
			return better, rel
		}
		return unresolved, rel
	}
	switch {
	case worsening > m.Bound:
		return worse, rel
	case worsening < -m.Bound:
		return better, rel
	}
	return within, rel
}

func allBetter(a, b []float64, dir string) bool {
	if dir == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareSets prints one row per workload comparing two sets of untraced
// runs metric by metric, and reports whether every verdict is within or
// better.
func compareSets(w io.Writer, specs []metricSpec, a, b []record) bool {
	values := func(recs []record, wl, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload == wl && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-16s", "workload")
	for _, m := range specs {
		fmt.Fprintf(w, " %18s", fmt.Sprintf("%s(±%g%%)", m.Name, m.Bound*100))
	}
	fmt.Fprintln(w)
	ok := true
	for _, wl := range workloadNames() {
		if len(values(a, wl, specs[0].Name)) == 0 && len(values(b, wl, specs[0].Name)) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s", wl)
		for _, m := range specs {
			va, vb := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, " %18s", "missing")
				ok = false
				continue
			}
			v, rel := verdict(va, vb, m)
			if v == worse || v == unresolved {
				ok = false
			}
			fmt.Fprintf(w, " %18s", fmt.Sprintf("%s %+.1f%%", v, rel*100))
		}
		fmt.Fprintln(w)
	}
	return ok
}
