package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{5.5, 1.25, 9, 7, 3, 2.5, 8, 6, 4, 10}, 2.875, 5.75, 8.25},
		{[]float64{2, 2, 2, 2}, 2, 2, 2},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (45-15)/30 = 1", got)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "sim_tasks_per_s", Better: "higher", Bound: 0.1}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 1.005, center * 0.995}
	}
	noisy := []float64{0.7, 1, 1.3, 0.8, 1.2}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", steady(1), steady(1.02), lower, within},
		{"slower", steady(1), steady(1.2), lower, worse},
		{"faster", steady(1), steady(0.8), lower, better},
		{"fewer tasks per second", steady(1), steady(0.8), higher, worse},
		{"more tasks per second", steady(1), steady(1.2), higher, better},
		{"noisy baseline", noisy, steady(1), lower, unresolved},
		{"noisy change", steady(1), noisy, lower, unresolved},
		{"noisy but every run faster", []float64{2, 2.6, 3, 2.2}, noisy, lower, better},
		{"noisy set-up is judged by its median", noisy, noisy, metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, within},
	} {
		if got, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
