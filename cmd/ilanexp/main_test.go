package main

import (
	"testing"

	"github.com/ilan-sched/ilan/internal/harness"
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
