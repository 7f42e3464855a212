package obs

import (
	"math"
	"testing"
)

// TestHistQuantileInterpolation pins the histogram_quantile-style estimator
// on known bucket distributions: linear interpolation inside the target
// bucket (first bucket from 0), +Inf ranks clamped to the last finite
// bound, NaN on empty.
func TestHistQuantileInterpolation(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cases := []struct {
		name   string
		counts []uint64
		q      float64
		want   float64
	}{
		// 10 samples assumed uniform in (0,1]: p50 lands mid-bucket.
		{"uniform-first-bucket-p50", []uint64{10, 0, 0, 0}, 0.50, 0.5},
		{"uniform-first-bucket-p90", []uint64{10, 0, 0, 0}, 0.90, 0.9},
		// 2/6/2 split: rank 5 is 3 samples into the 6-sample (1,2] bucket.
		{"mid-bucket-p50", []uint64{2, 6, 2, 0}, 0.50, 1.5},
		// rank 9.5 is 1.5 samples into the 2-sample (2,4] bucket.
		{"upper-bucket-p95", []uint64{2, 6, 2, 0}, 0.95, 3.5},
		{"upper-bucket-p99", []uint64{2, 6, 2, 0}, 0.99, 3.9},
		// Exact bucket edges.
		{"q0-is-lower-edge", []uint64{2, 6, 2, 0}, 0, 0},
		{"q1-is-last-bound", []uint64{2, 6, 2, 0}, 1, 4},
		// Everything overflowed: the estimator cannot see past the last
		// finite bound, so every quantile clamps there.
		{"inf-bucket-clamps", []uint64{0, 0, 0, 5}, 0.50, 4},
		{"inf-bucket-clamps-p99", []uint64{0, 0, 0, 5}, 0.99, 4},
		// Mixed with overflow: p50 still interpolates in a finite bucket.
		{"mixed-overflow-p50", []uint64{4, 4, 0, 2}, 0.50, 1.25},
		// Out-of-range q is clamped, not an error.
		{"q-below-zero", []uint64{10, 0, 0, 0}, -1, 0},
		{"q-above-one", []uint64{0, 0, 0, 5}, 2, 4},
	}
	for _, c := range cases {
		var count uint64
		for _, n := range c.counts {
			count += n
		}
		h := HistSnapshot{Bounds: bounds, Counts: c.counts, Count: count}
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
	if got := (HistSnapshot{Bounds: bounds, Counts: []uint64{0, 0, 0, 0}}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram: Quantile = %g, want NaN", got)
	}
	if got := (HistSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("zero-value snapshot: Quantile = %g, want NaN", got)
	}
}

// TestHistQuantileMatchesObservations drives Quantile through a live
// histogram: with ExpBuckets and a linear ramp of samples the interpolated
// p50 must land within one bucket width of the true median.
func TestHistQuantileMatchesObservations(t *testing.T) {
	run := NewRun(Options{})
	bounds := ExpBuckets(1e-3, 2, 12)
	for i := 1; i <= 1000; i++ {
		run.Observe("h", bounds, float64(i)*1e-3) // 1ms .. 1s linear
	}
	s := run.Snapshot().Histograms["h"]
	trueMedian := 0.5005
	got := s.Quantile(0.5)
	lo, hi := 0.256, 1.024 // the bucket the true median falls into
	if got < lo || got > hi {
		t.Fatalf("p50 = %g outside the median's bucket [%g, %g] (true median %g)",
			got, lo, hi, trueMedian)
	}
}
