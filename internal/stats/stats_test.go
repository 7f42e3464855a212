package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
}

func TestStdDevKnownValue(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample stddev of this classic set is ~2.138.
	if got := StdDev(xs); !almostEq(got, 2.13809, 1e-4) {
		t.Fatalf("StdDev = %g, want ~2.138", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev singleton != 0")
	}
}

func TestVarianceIsSquare(t *testing.T) {
	xs := []float64{1, 3, 5, 9, 11}
	if got, want := Variance(xs), StdDev(xs)*StdDev(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %g, want %g", got, want)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(2, 1) != 2 {
		t.Fatal("2x speedup wrong")
	}
	if Speedup(1, 2) != 0.5 {
		t.Fatal("slowdown wrong")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("Speedup by zero not +Inf")
	}
}

func TestCoefVar(t *testing.T) {
	if CoefVar([]float64{5, 5, 5}) != 0 {
		t.Fatal("constant sample CoefVar != 0")
	}
	if CoefVar([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean CoefVar not 0 fallback")
	}
}

func TestDropOutliers(t *testing.T) {
	xs := []float64{10, 10.1, 9.9, 10.05, 9.95, 100}
	out := DropOutliers(xs, 2)
	if len(out) != 5 {
		t.Fatalf("DropOutliers kept %d, want 5", len(out))
	}
	for _, x := range out {
		if x == 100 {
			t.Fatal("outlier survived")
		}
	}
	// Small and constant inputs pass through.
	if got := DropOutliers([]float64{1, 2}, 2); len(got) != 2 {
		t.Fatal("small input should pass through")
	}
	if got := DropOutliers([]float64{3, 3, 3, 3}, 2); len(got) != 4 {
		t.Fatal("constant input should pass through")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Fatalf("GeoMean = %g", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) || !math.IsNaN(GeoMean(nil)) {
		t.Fatal("GeoMean should be NaN for invalid input")
	}
}

func TestWelchTKnownValue(t *testing.T) {
	a := []float64{10, 11, 9, 10.5, 9.5}
	b := []float64{12, 13, 11, 12.5, 11.5}
	tt, df := WelchT(a, b)
	if tt >= 0 {
		t.Fatalf("t = %g, want negative (a's mean below b's)", tt)
	}
	if df < 4 || df > 10 {
		t.Fatalf("df = %g, want ~8", df)
	}
	if !SignificantlyDifferent(a, b) {
		t.Fatal("clearly separated samples not significant")
	}
}

func TestWelchTIdenticalSamples(t *testing.T) {
	a := []float64{5, 6, 7, 8}
	tt, _ := WelchT(a, a)
	if tt != 0 {
		t.Fatalf("t = %g for identical samples, want 0", tt)
	}
	if SignificantlyDifferent(a, a) {
		t.Fatal("identical samples significant")
	}
}

func TestWelchTDegenerate(t *testing.T) {
	if tt, df := WelchT([]float64{1}, []float64{2, 3}); tt != 0 || df != 0 {
		t.Fatal("short sample should give (0,0)")
	}
	if tt, df := WelchT([]float64{5, 5}, []float64{5, 5}); tt != 0 || df != 0 {
		t.Fatal("zero-variance samples should give (0,0)")
	}
	if SignificantlyDifferent([]float64{1}, []float64{2}) {
		t.Fatal("degenerate samples significant")
	}
}

func TestSignificanceRespectsNoise(t *testing.T) {
	// Two overlapping noisy samples with tiny mean difference: not
	// significant.
	a := []float64{10, 12, 9, 11, 10, 13, 8, 11}
	b := []float64{10.2, 12.2, 9.2, 11.2, 10.2, 13.2, 8.2, 11.2}
	if SignificantlyDifferent(a, b) {
		t.Fatal("0.2 shift inside +-2 noise flagged significant")
	}
}

// Property: mean lies within [min, max]; stddev is non-negative; dropping
// outliers never increases stddev.
func TestPropertyDescriptiveStats(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		if m < slices.Min(xs)-1e-9 || m > slices.Max(xs)+1e-9 {
			return false
		}
		if StdDev(xs) < 0 {
			return false
		}
		if len(xs) >= 3 && StdDev(DropOutliers(xs, 2)) > StdDev(xs)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
