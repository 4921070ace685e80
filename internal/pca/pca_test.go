package pca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// anisotropicData draws n points with variances 9, 1, 0.01 along axes.
func anisotropicData(rng *rand.Rand, n int) []linalg.Vector {
	rows := make([]linalg.Vector, n)
	for i := range rows {
		rows[i] = linalg.Vector{
			3 * rng.NormFloat64(),
			rng.NormFloat64(),
			0.1 * rng.NormFloat64(),
		}
	}
	return rows
}

func TestFitRecoversAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	p, err := Fit(anisotropicData(rng, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// Eigenvalues ≈ 9, 1, 0.01 in order.
	if math.Abs(p.Eigenvalues[0]-9) > 0.7 || math.Abs(p.Eigenvalues[1]-1) > 0.15 {
		t.Errorf("eigenvalues = %v", p.Eigenvalues)
	}
	// First component aligned with axis 0 (up to sign).
	if got := math.Abs(p.Components.At(0, 0)); got < 0.99 {
		t.Errorf("first PC not aligned with dominant axis: |g00| = %v", got)
	}
}

func TestVarianceRatioAndSelection(t *testing.T) {
	p := &PCA{Eigenvalues: linalg.Vector{8, 1, 0.5, 0.5}, dim: 4}
	if got := p.VarianceRatio(1); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("ratio(1) = %v", got)
	}
	if got := p.VarianceRatio(4); got != 1 {
		t.Errorf("ratio(4) = %v", got)
	}
	if got := p.VarianceRatio(0); got != 0 {
		t.Errorf("ratio(0) = %v", got)
	}
}

func TestProjectionDecorrelates(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Correlated 2-D data.
	rows := make([]linalg.Vector, 3000)
	for i := range rows {
		x := rng.NormFloat64()
		rows[i] = linalg.Vector{x + 0.1*rng.NormFloat64(), x + 0.1*rng.NormFloat64()}
	}
	p, _ := Fit(rows)
	z := p.ProjectAll(rows, 2)
	// Empirical covariance of z must be ≈ diag(λ).
	var c01, c00, c11 float64
	for _, zi := range z {
		c00 += zi[0] * zi[0]
		c11 += zi[1] * zi[1]
		c01 += zi[0] * zi[1]
	}
	n := float64(len(z) - 1)
	c00, c11, c01 = c00/n, c11/n, c01/n
	if math.Abs(c01) > 0.02*math.Sqrt(c00*c11+1e-12)+1e-6 {
		t.Errorf("projected components correlated: cov01 = %v", c01)
	}
	if math.Abs(c00-p.Eigenvalues[0]) > 0.05*p.Eigenvalues[0] {
		t.Errorf("var(z1) = %v, λ1 = %v", c00, p.Eigenvalues[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("Fit(nil) must error")
	}
	if _, err := Fit([]linalg.Vector{{1, 2}, {1}}); err == nil {
		t.Error("ragged data must error")
	}
	// Single row: zero covariance, still fits.
	p, err := Fit([]linalg.Vector{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.VarianceRatio(1) != 1 {
		t.Error("degenerate fit must report full variance coverage")
	}
}
