package stat

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalCDFKnown(t *testing.T) {
	approx(t, "Φ(0)", NormalCDF(0), 0.5, 1e-15)
	approx(t, "Φ(1.96)", NormalCDF(1.959963984540054), 0.975, 1e-9)
	approx(t, "Φ(-1)", NormalCDF(-1), 0.15865525393145707, 1e-12)
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		approx(t, "Φ(Φ⁻¹(p))", NormalCDF(x), p, 1e-9)
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile edges must be ±Inf")
	}
}

func TestChiSquareCDFKnown(t *testing.T) {
	// χ²_2 is Exp(1/2): CDF = 1 - e^{-x/2}.
	for _, x := range []float64{0.5, 1, 3, 10} {
		approx(t, "χ²₂ CDF", ChiSquareCDF(x, 2), 1-math.Exp(-x/2), 1e-12)
	}
	// Textbook: χ²₁(0.95 quantile) = 3.841, χ²₁₀(0.95) = 18.307.
	approx(t, "χ²₁ 95%", ChiSquareQuantile(0.95, 1), 3.841458820694124, 1e-6)
	approx(t, "χ²₁₀ 95%", ChiSquareQuantile(0.95, 10), 18.307038053275146, 1e-6)
	approx(t, "χ²₃ 99%", ChiSquareQuantile(0.99, 3), 11.344866730144373, 1e-6)
}

func TestChiSquareQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 3, 6, 9, 12, 16, 50} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99} {
			x := ChiSquareQuantile(p, df)
			approx(t, "χ² roundtrip", ChiSquareCDF(x, df), p, 1e-9)
		}
	}
}

func TestFCDFKnown(t *testing.T) {
	// F(d1, d2) with x=1 and d1=d2 gives CDF 0.5 by symmetry.
	for _, d := range []float64{1, 3, 7, 20} {
		approx(t, "F(d,d) at 1", FCDF(1, d, d), 0.5, 1e-12)
	}
	// Textbook 95th percentiles: F(1,10)=4.9646, F(5,10)=3.3258, F(12,48)≈1.96.
	approx(t, "F₁,₁₀ 95%", FQuantile(0.95, 1, 10), 4.964602743730711, 1e-5)
	approx(t, "F₅,₁₀ 95%", FQuantile(0.95, 5, 10), 3.3258345042899543, 1e-5)
	// The paper's Table 2 quantile-F for dim 12, n=60 (F_{12,48}) is 1.96.
	got := FQuantile(0.95, 12, 48)
	if math.Abs(got-1.96) > 0.01 {
		t.Errorf("F₁₂,₄₈ 95%% = %v, paper reports 1.96", got)
	}
}

func TestFQuantileRoundTrip(t *testing.T) {
	for _, d1 := range []float64{1, 3, 12} {
		for _, d2 := range []float64{5, 17, 48} {
			for _, p := range []float64{0.05, 0.5, 0.95, 0.99} {
				x := FQuantile(p, d1, d2)
				approx(t, "F roundtrip", FCDF(x, d1, d2), p, 1e-8)
			}
		}
	}
}

func TestStudentTVsF(t *testing.T) {
	// t²_df ~ F(1, df): P(|T|<=x) = P(F <= x²).
	for _, df := range []float64{3, 10, 30} {
		for _, x := range []float64{0.5, 1, 2} {
			twoSided := StudentTCDF(x, df) - StudentTCDF(-x, df)
			approx(t, "t² vs F", twoSided, FCDF(x*x, 1, df), 1e-10)
		}
	}
}

func TestFQuantileMatchesEmpirical(t *testing.T) {
	// Empirical check: 95th percentile of RandomF draws ≈ FQuantile(0.95).
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	draws := make([]float64, n)
	for i := range draws {
		draws[i] = RandomF(rng, 12, 48)
	}
	sortFloats(draws)
	emp := draws[n*95/100-1] // the nearest-rank 95th percentile
	want := FQuantile(0.95, 12, 48)
	if math.Abs(emp-want) > 0.08 {
		t.Errorf("empirical 95th pct = %v, analytic = %v", emp, want)
	}
}

func TestChiSquareQuantileMonotone(t *testing.T) {
	prev := 0.0
	for p := 0.05; p < 1; p += 0.05 {
		x := ChiSquareQuantile(p, 6)
		if x <= prev {
			t.Fatalf("quantile not increasing at p=%v", p)
		}
		prev = x
	}
}

func sortFloats(xs []float64) {
	// Insertion-free: reuse sort from stdlib via a tiny shim to avoid an
	// extra import block churn in tests.
	quickSort(xs, 0, len(xs)-1)
}

func quickSort(xs []float64, lo, hi int) {
	for lo < hi {
		p := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSort(xs, lo, j)
			lo = i
		} else {
			quickSort(xs, i, hi)
			hi = j
		}
	}
}

func TestDistributionEdges(t *testing.T) {
	if ChiSquareCDF(-1, 3) != 0 {
		t.Error("χ² CDF of negative must be 0")
	}
	if !math.IsNaN(ChiSquareQuantile(0.5, -1)) || !math.IsNaN(ChiSquareQuantile(math.NaN(), 3)) {
		t.Error("invalid χ² quantile args must be NaN")
	}
	if ChiSquareQuantile(0, 3) != 0 || !math.IsInf(ChiSquareQuantile(1, 3), 1) {
		t.Error("χ² quantile bounds")
	}
	if FCDF(-2, 3, 4) != 0 {
		t.Error("F CDF of negative must be 0")
	}
	if !math.IsNaN(FQuantile(0.5, 0, 4)) || !math.IsNaN(FQuantile(0.5, 3, -1)) {
		t.Error("invalid F quantile args must be NaN")
	}
	if FQuantile(0, 3, 4) != 0 || !math.IsInf(FQuantile(1, 3, 4), 1) {
		t.Error("F quantile bounds")
	}
	if !math.IsNaN(StudentTCDF(0, -1)) {
		t.Error("invalid t df must be NaN")
	}
}
