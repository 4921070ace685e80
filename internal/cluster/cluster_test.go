package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func randPoints(rng *rand.Rand, n, dim int, center linalg.Vector, spread float64) []Point {
	ps := make([]Point, n)
	for i := range ps {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = center[d] + spread*rng.NormFloat64()
		}
		ps[i] = Point{ID: i, Vec: v, Score: 1 + rng.Float64()*2}
	}
	return ps
}

// recomputeFromPoints rebuilds c's Mean, Scatter and Weight by direct
// summation over c.Points (Eqs. 11-13 read literally), the reference the
// incremental updates must match.
func recomputeFromPoints(c *Cluster) {
	dim := c.Dim()
	c.Weight = 0
	c.Mean = linalg.NewVector(dim)
	c.Scatter = linalg.NewMatrix(dim, dim)
	for _, p := range c.Points {
		c.Weight += p.Score
		c.Mean.AddScaled(p.Score, p.Vec)
	}
	if c.Weight == 0 {
		return
	}
	c.Mean = c.Mean.Scale(1 / c.Weight)
	for _, p := range c.Points {
		d := p.Vec.Sub(c.Mean)
		c.Scatter.AddScaledInPlace(p.Score, d.Outer(d))
	}
}

func TestAddMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(6)
		ps := randPoints(rng, 2+rng.Intn(20), dim, linalg.NewVector(dim), 2)
		c := FromPoints(ps)
		ref := &Cluster{Points: ps}
		ref.Mean = linalg.NewVector(dim)
		ref.Scatter = linalg.NewMatrix(dim, dim)
		recomputeFromPoints(ref)
		if !c.Mean.Equal(ref.Mean, 1e-9) {
			t.Fatalf("trial %d: incremental mean %v != direct %v", trial, c.Mean, ref.Mean)
		}
		if !c.Scatter.Equal(ref.Scatter, 1e-7) {
			t.Fatalf("trial %d: incremental scatter != direct", trial)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestWeightedMeanDefinition(t *testing.T) {
	// Definition 1: x̄ = Σ v x / Σ v with hand-computed values.
	c := New(2)
	c.Add(Point{Vec: linalg.Vector{0, 0}, Score: 1})
	c.Add(Point{Vec: linalg.Vector{3, 6}, Score: 2})
	// mean = (1*0 + 2*3)/3, (1*0 + 2*6)/3 = (2, 4)
	if !c.Mean.Equal(linalg.Vector{2, 4}, 1e-12) {
		t.Errorf("Mean = %v", c.Mean)
	}
	if c.Weight != 3 {
		t.Errorf("Weight = %v", c.Weight)
	}
}

func TestScatterDefinition(t *testing.T) {
	// Definition 2 with equal scores: scatter = Σ (x-x̄)(x-x̄)'.
	c := New(1)
	c.Add(Point{Vec: linalg.Vector{1}, Score: 1})
	c.Add(Point{Vec: linalg.Vector{3}, Score: 1})
	// mean 2, scatter = (1-2)² + (3-2)² = 2
	if got := c.Scatter.At(0, 0); !almostEq(got, 2, 1e-12) {
		t.Errorf("scatter = %v", got)
	}
	// Sample covariance = scatter/(m-1) = 2.
	if got := c.SampleCov().At(0, 0); !almostEq(got, 2, 1e-12) {
		t.Errorf("sample cov = %v", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Property (core paper claim, Eq. 11-13): merging two clusters via their
// summaries must give exactly the statistics of the union of their points.
func TestPropMergeStatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(5)
		a := FromPoints(randPoints(r, 1+r.Intn(10), dim, linalg.NewVector(dim), 1))
		bc := make(linalg.Vector, dim)
		for i := range bc {
			bc[i] = 3 * r.NormFloat64()
		}
		b := FromPoints(randPoints(r, 1+r.Intn(10), dim, bc, 1))

		merged := MergeStats(a, b)
		direct := New(dim)
		for _, p := range a.Points {
			direct.Add(p)
		}
		for _, p := range b.Points {
			direct.Add(p)
		}
		return merged.Mean.Equal(direct.Mean, 1e-8) &&
			merged.Scatter.Equal(direct.Scatter, 1e-6) &&
			almostEq(merged.Weight, direct.Weight, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMergeStatsCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := FromPoints(randPoints(rng, 5, 3, linalg.Vector{0, 0, 0}, 1))
	b := FromPoints(randPoints(rng, 7, 3, linalg.Vector{4, 4, 4}, 1))
	ab, ba := MergeStats(a, b), MergeStats(b, a)
	if !ab.Mean.Equal(ba.Mean, 1e-12) || !ab.Scatter.Equal(ba.Scatter, 1e-9) {
		t.Error("MergeStats must be commutative in the statistics")
	}
}

func TestInverseCovSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := FromPoints(randPoints(rng, 30, 3, linalg.Vector{0, 0, 0}, 2))
	cov := c.SampleCov()

	// Diagonal scheme: product with Diag(cov) diag must be ~I on diagonal.
	dinv := c.InverseDiag()
	for i := 0; i < 3; i++ {
		if !almostEq(dinv[i]*cov.At(i, i), 1, 1e-9) {
			t.Errorf("diag inverse mismatch at %d", i)
		}
	}
	// Full scheme: cov · inv ≈ I.
	finv := c.InverseCov(FullInverse)
	if !cov.Mul(finv).Equal(linalg.Identity(3), 1e-6) {
		t.Error("full inverse round trip failed")
	}
}

func TestInverseCovDegenerate(t *testing.T) {
	// All points identical: zero covariance must still invert (floored).
	c := New(2)
	for i := 0; i < 5; i++ {
		c.Add(Point{Vec: linalg.Vector{1, 1}, Score: 1})
	}
	for _, scheme := range []Scheme{Diagonal, FullInverse} {
		inv := c.InverseCov(scheme)
		for _, v := range inv.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v scheme produced non-finite inverse", scheme)
			}
		}
	}
	// Singleton cluster.
	s := FromPoint(Point{Vec: linalg.Vector{0, 0}, Score: 1})
	if d := s.Mahalanobis(linalg.Vector{1, 0}, Diagonal); math.IsNaN(d) {
		t.Error("singleton Mahalanobis must be finite")
	}
}

func TestMahalanobisAgainstKnown(t *testing.T) {
	// Two dims with variances 4 and 1 → inverse diag (0.25, 1).
	c := New(2)
	c.Add(Point{Vec: linalg.Vector{-2, -1}, Score: 1})
	c.Add(Point{Vec: linalg.Vector{2, 1}, Score: 1})
	// mean (0,0); scatter diag (8, 2); sample cov diag (8, 2) (m-1 = 1).
	got := c.Mahalanobis(linalg.Vector{4, 0}, Diagonal)
	if !almostEq(got, 2, 1e-9) { // 16/8 = 2
		t.Errorf("Mahalanobis = %v, want 2", got)
	}
}

func TestWithoutPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := randPoints(rng, 10, 3, linalg.Vector{0, 0, 0}, 1)
	c := FromPoints(ps)
	w := c.WithoutPoint(4)
	if w.N() != 9 {
		t.Fatalf("N = %d", w.N())
	}
	direct := New(3)
	for i, p := range ps {
		if i == 4 {
			continue
		}
		direct.Add(p)
	}
	if !w.Mean.Equal(direct.Mean, 1e-9) {
		t.Error("WithoutPoint statistics mismatch")
	}
}

func TestNormalizedWeights(t *testing.T) {
	a := FromPoint(Point{Vec: linalg.Vector{0}, Score: 1})
	b := FromPoint(Point{Vec: linalg.Vector{1}, Score: 3})
	tw := TotalWeight([]*Cluster{a, b})
	if tw != 4 {
		t.Errorf("TotalWeight = %v", tw)
	}
	// w_i = m_i / Σ m_k (Sec. 4.2.1), the classifier's priors.
	if w0, w1 := a.Weight/tw, b.Weight/tw; !almostEq(w0, 0.25, 1e-12) || !almostEq(w1, 0.75, 1e-12) {
		t.Errorf("weights = %v, %v", w0, w1)
	}
}

func TestAddRejectsBadInput(t *testing.T) {
	c := New(2)
	mustPanic(t, func() { c.Add(Point{Vec: linalg.Vector{1, 2}, Score: 0}) })
	mustPanic(t, func() { c.Add(Point{Vec: linalg.Vector{1}, Score: 1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// Property: MergeStats is associative in the statistics (up to floating
// point): merging (a+b)+c gives the same moments as a+(b+c).
func TestPropMergeStatsAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(4)
		mk := func(base int) *Cluster {
			c := make(linalg.Vector, dim)
			for i := range c {
				c[i] = 3 * r.NormFloat64()
			}
			return FromPoints(randPoints(r, 1+r.Intn(8), dim, c, 1))
		}
		a, b, c := mk(0), mk(100), mk(200)
		left := MergeStats(MergeStats(a, b), c)
		right := MergeStats(a, MergeStats(b, c))
		return left.Mean.Equal(right.Mean, 1e-8) &&
			left.Scatter.Equal(right.Scatter, 1e-6) &&
			almostEq(left.Weight, right.Weight, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
