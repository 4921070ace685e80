package stat

import "math"

// NormalCDF returns the standard normal cumulative distribution Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), using the
// Acklam/Wichura-style rational approximation refined by one Newton step.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Beasley-Springer-Moro style initial estimate.
	x := bsmQuantile(p)
	// One Halley refinement against the exact CDF.
	for i := 0; i < 3; i++ {
		e := NormalCDF(x) - p
		pdf := math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
		if pdf == 0 {
			break
		}
		u := e / pdf
		x -= u / (1 + x*u/2)
	}
	return x
}

func bsmQuantile(p float64) float64 {
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// ChiSquareCDF returns P(X <= x) for X ~ χ²_df.
func ChiSquareCDF(x float64, df float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaP(df/2, x/2)
}

// ChiSquareQuantile returns the p-quantile of the χ²_df distribution —
// the paper's effective radius χ²_p(α) uses the (1-α) quantile
// (Lemma 1: for significance level α, 100(1-α)% of the data falls inside
// the ellipsoid of radius χ²_p at that quantile). Values come from the
// exact-value quantile cache (quantilecache.go).
func ChiSquareQuantile(p float64, df float64) float64 {
	switch {
	case df <= 0 || math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return quantiles.get(p, df, 0, chiSquareQuantile)
}

// chiSquareQuantile is the uncached root-find behind ChiSquareQuantile
// (0 < p < 1, df > 0); the third argument is the cache key's unused slot.
func chiSquareQuantile(p, df, _ float64) float64 {
	// Wilson-Hilferty initial estimate.
	z := NormalQuantile(p)
	t := 2.0 / (9 * df)
	x := df * math.Pow(1-t+z*math.Sqrt(t), 3)
	if x <= 0 {
		x = 1e-10
	}
	return invertCDF(p, x, func(v float64) float64 { return ChiSquareCDF(v, df) })
}

// FCDF returns P(X <= x) for X ~ F(d1, d2).
func FCDF(x, d1, d2 float64) float64 {
	if x <= 0 {
		return 0
	}
	return BetaInc(d1/2, d2/2, d1*x/(d1*x+d2))
}

// FQuantile returns the p-quantile of the F(d1, d2) distribution. The
// paper's critical value uses F_{p, m_i+m_j-p-1}(α) as "the upper
// 100(1-α)th percentile", i.e. FQuantile(1-α, d1, d2). Values come from the
// exact-value quantile cache (quantilecache.go).
func FQuantile(p, d1, d2 float64) float64 {
	switch {
	case d1 <= 0 || d2 <= 0 || math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return quantiles.get(p, d1, d2, fQuantile)
}

// fQuantile is the uncached root-find behind FQuantile (0 < p < 1,
// d1, d2 > 0).
func fQuantile(p, d1, d2 float64) float64 {
	// Initial estimate from chi-square ratio heuristic.
	x := ChiSquareQuantile(p, d1) / d1
	if d2 > 2 {
		x *= d2 / (d2 - 2) // scale toward the F mean
	}
	if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		x = 1
	}
	return invertCDF(p, x, func(v float64) float64 { return FCDF(v, d1, d2) })
}

// StudentTCDF returns P(X <= x) for X ~ t_df. Included because Hotelling's
// T² reduces to a squared t statistic when p = 1, which the tests exploit.
func StudentTCDF(x, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	ib := BetaInc(df/2, 0.5, df/(df+x*x))
	if x >= 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// invertCDF solves cdf(x) = p for x > 0 given a monotone CDF and a
// positive initial estimate, by bracketing plus bisection refined with
// Newton-free secant steps. Robust for every distribution in this package.
func invertCDF(p, x0 float64, cdf func(float64) float64) float64 {
	lo, hi := 0.0, x0
	// Grow hi until it brackets p.
	for i := 0; i < 200 && cdf(hi) < p; i++ {
		lo = hi
		hi *= 2
		if hi > 1e300 {
			return math.Inf(1)
		}
	}
	// Bisection to convergence.
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
	}
	return 0.5 * (lo + hi)
}
