// Package stats provides the small statistical toolkit the experiment
// harness needs: means, standard deviations, speedup ratios, Welch's
// t-test, and the outlier filter used in the paper's variability analysis.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Variance returns the sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	s := StdDev(xs)
	return s * s
}

// Speedup returns base/x: how many times faster x is than base
// (>1 means faster, matching the paper's "normalized speedup").
func Speedup(base, x float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return base / x
}

// CoefVar returns the coefficient of variation (stddev/mean), or 0 when the
// mean is zero.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// DropOutliers returns xs without elements farther than k sample standard
// deviations from the mean — the filter the paper applies to its BT
// variability outlier. It never drops below two samples.
func DropOutliers(xs []float64, k float64) []float64 {
	if len(xs) < 3 {
		return append([]float64(nil), xs...)
	}
	m, sd := Mean(xs), StdDev(xs)
	if sd == 0 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m) <= k*sd {
			out = append(out, x)
		}
	}
	if len(out) < 2 {
		return append([]float64(nil), xs...)
	}
	return out
}

// GeoMean returns the geometric mean of positive values, or NaN if any
// value is non-positive or the input is empty.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// WelchT returns Welch's t statistic and the Welch–Satterthwaite degrees of
// freedom for the difference of means of two samples with (possibly)
// unequal variances. It returns (0, 0) when either sample has fewer than
// two elements or both variances are zero.
func WelchT(a, b []float64) (t, df float64) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	den := sa + sb
	if den == 0 {
		return 0, 0
	}
	t = (ma - mb) / math.Sqrt(den)
	df = den * den / (sa*sa/(na-1) + sb*sb/(nb-1))
	return t, df
}

// SignificantlyDifferent reports whether two samples' means differ at the
// (approximately) 5% level under Welch's t-test. For the experiment sizes
// used here (df >= ~10) the normal approximation of the t distribution is
// adequate; the threshold is the two-sided 97.5% quantile with a small
// small-sample widening.
func SignificantlyDifferent(a, b []float64) bool {
	t, df := WelchT(a, b)
	if df <= 0 {
		return false
	}
	// Two-sided 5% critical values of Student's t, coarsely interpolated.
	crit := 1.96
	switch {
	case df < 5:
		crit = 2.78
	case df < 10:
		crit = 2.26
	case df < 20:
		crit = 2.09
	case df < 40:
		crit = 2.02
	}
	return math.Abs(t) > crit
}
