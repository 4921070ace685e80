package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestGammaPKnown(t *testing.T) {
	// P(1, x) = 1 - e^-x (exponential CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		approx(t, "GammaP(1,x)", GammaP(1, x), 1-math.Exp(-x), 1e-12)
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		approx(t, "GammaP(0.5,x)", GammaP(0.5, x), math.Erf(math.Sqrt(x)), 1e-12)
	}
}

func TestGammaPEdges(t *testing.T) {
	if GammaP(2, 0) != 0 {
		t.Error("GammaP(a,0) != 0")
	}
	if !math.IsNaN(GammaP(-1, 1)) || !math.IsNaN(GammaP(1, -1)) {
		t.Error("invalid args must yield NaN")
	}
	if got := GammaP(3, 1e6); math.Abs(got-1) > 1e-12 {
		t.Errorf("GammaP(3, large) = %v", got)
	}
}

func TestBetaIncKnown(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		approx(t, "BetaInc(1,1,x)", BetaInc(1, 1, x), x, 1e-12)
	}
	// I_x(2,2) = x²(3-2x).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		approx(t, "BetaInc(2,2,x)", BetaInc(2, 2, x), x*x*(3-2*x), 1e-12)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.6} {
		approx(t, "BetaInc symmetry", BetaInc(3, 5, x), 1-BetaInc(5, 3, 1-x), 1e-12)
	}
}

func TestBetaIncMonotone(t *testing.T) {
	prev := 0.0
	for x := 0.0; x <= 1.0001; x += 0.01 {
		v := BetaInc(2.5, 4.5, math.Min(x, 1))
		if v < prev-1e-12 {
			t.Fatalf("BetaInc not monotone at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestLnBeta(t *testing.T) {
	// B(2, 3) = 1/12.
	approx(t, "LnBeta(2,3)", LnBeta(2, 3), math.Log(1.0/12), 1e-12)
	// B(0.5, 0.5) = π.
	approx(t, "LnBeta(.5,.5)", LnBeta(0.5, 0.5), math.Log(math.Pi), 1e-12)
}

// Property: P(a, x) is a CDF in x — within [0,1] and nondecreasing.
func TestPropGammaPBounds(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 50))
		x = math.Abs(math.Mod(x, 200))
		p := GammaP(a, x)
		return p >= -1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
