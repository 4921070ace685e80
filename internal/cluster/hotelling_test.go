package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/stat"
)

// gaussCluster draws n unit-score points from N(center, scale² I).
func gaussCluster(rng *rand.Rand, n, dim int, center linalg.Vector, scale float64) *Cluster {
	c := New(dim)
	for i := 0; i < n; i++ {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = center[d] + scale*rng.NormFloat64()
		}
		c.Add(Point{ID: i, Vec: v, Score: 1})
	}
	return c
}

func TestT2SameMeanSmall(t *testing.T) {
	// Same-mean clusters: T² should usually be below c² at α=0.05.
	rng := rand.New(rand.NewSource(6))
	accept := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := gaussCluster(rng, 30, 3, linalg.Vector{0, 0, 0}, 1)
		b := gaussCluster(rng, 30, 3, linalg.Vector{0, 0, 0}, 1)
		if T2(a, b, FullInverse) <= CriticalValue(a, b, a.Dim(), 0.05) {
			accept++
		}
	}
	// Expect ≈95% accepted; allow slack.
	if rate := float64(accept) / trials; rate < 0.88 {
		t.Errorf("same-mean acceptance rate = %v, want ≈0.95", rate)
	}
}

func TestT2DifferentMeanRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rejected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		a := gaussCluster(rng, 30, 3, linalg.Vector{0, 0, 0}, 1)
		b := gaussCluster(rng, 30, 3, linalg.Vector{3, 3, 3}, 1)
		t2, c2 := T2(a, b, FullInverse), CriticalValue(a, b, a.Dim(), 0.05)
		if t2 > c2 {
			rejected++
		}
		if t2 < 0 || c2 < 0 {
			t.Fatalf("negative statistic: T²=%v c²=%v", t2, c2)
		}
	}
	if rejected < 98 {
		t.Errorf("distant clusters rejected %d/100 times, want ≈100", rejected)
	}
}

func TestT2NullDistributionMatchesF(t *testing.T) {
	// Under H0, T² (m-2)... : T² · (m-p-1)/(p(m-2)) ~ F(p, m-p-1).
	// Check the empirical 95th percentile of the scaled statistic.
	rng := rand.New(rand.NewSource(8))
	const trials, n, p = 2000, 30, 3
	vals := make([]float64, trials)
	for i := range vals {
		a := gaussCluster(rng, n, p, linalg.Vector{0, 0, 0}, 1)
		b := gaussCluster(rng, n, p, linalg.Vector{0, 0, 0}, 1)
		m := a.Weight + b.Weight
		scale := (m - float64(p) - 1) / (float64(p) * (m - 2))
		vals[i] = T2(a, b, FullInverse) * scale
	}
	sortF(vals)
	emp := vals[trials*95/100-1] // the nearest-rank 95th percentile
	want := stat.FQuantile(0.95, p, 2*n-p-1)
	if math.Abs(emp-want)/want > 0.12 {
		t.Errorf("empirical F 95th pct = %v, analytic = %v", emp, want)
	}
}

func sortF(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Property (Theorem 1): T² is invariant under invertible linear
// transformations x → A x of the feature space.
func TestPropT2LinearInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dim = 3
		a := gaussCluster(r, 10, dim, linalg.Vector{0, 0, 0}, 1)
		b := gaussCluster(r, 12, dim, linalg.Vector{1, 2, 0}, 1.5)

		// Random well-conditioned transform A = Q + 2I.
		A := linalg.Identity(dim).Scale(2)
		for i := range A.Data {
			A.Data[i] += 0.5 * r.NormFloat64()
		}
		if math.Abs(A.Det()) < 0.5 {
			return true // skip ill-conditioned draws
		}
		ta, tb := transformCluster(a, A), transformCluster(b, A)
		orig := T2(a, b, FullInverse)
		trans := T2(ta, tb, FullInverse)
		return math.Abs(orig-trans) <= 1e-6*math.Max(1, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func transformCluster(c *Cluster, A *linalg.Matrix) *Cluster {
	out := New(c.Dim())
	for _, p := range c.Points {
		out.Add(Point{ID: p.ID, Vec: A.MulVec(p.Vec), Score: p.Score})
	}
	return out
}

// The diagonal scheme is NOT fully invariant (that is the price of
// avoiding the inverse); but it must be invariant under axis-aligned
// scaling, which is what matters for normalized feature components.
func TestT2DiagonalScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := gaussCluster(rng, 15, 3, linalg.Vector{0, 0, 0}, 1)
	b := gaussCluster(rng, 15, 3, linalg.Vector{2, 0, 1}, 1)
	A := linalg.Diag(linalg.Vector{3, 0.25, 10})
	ta, tb := transformCluster(a, A), transformCluster(b, A)
	orig := T2(a, b, Diagonal)
	trans := T2(ta, tb, Diagonal)
	if math.Abs(orig-trans) > 1e-6*math.Max(1, orig) {
		t.Errorf("diagonal T² not scale-invariant: %v vs %v", orig, trans)
	}
}

func TestCriticalValueAgainstPaper(t *testing.T) {
	// Paper Tables 2-3: dim 12, clusters of size 30 (weight 30 each),
	// quantile-F = 1.96 at α=0.05 — i.e. F_{12,48}(0.05)≈1.96 and
	// c² = 12·58/47 · 1.96 ≈ 29.0.
	a := &Cluster{Weight: 30, Mean: linalg.NewVector(12), Scatter: linalg.NewMatrix(12, 12)}
	b := &Cluster{Weight: 30, Mean: linalg.NewVector(12), Scatter: linalg.NewMatrix(12, 12)}
	c2 := CriticalValue(a, b, 12, 0.05)
	f := stat.FQuantile(0.95, 12, 47)
	want := 12.0 * 58 / 47 * f
	if !almostEq(c2, want, 1e-9) {
		t.Errorf("c² = %v, want %v", c2, want)
	}
	if math.Abs(f-1.96) > 0.02 {
		t.Errorf("F quantile %v, paper reports ≈1.96", f)
	}
}

func TestCriticalValueSmallSample(t *testing.T) {
	a := &Cluster{Weight: 1, Mean: linalg.NewVector(3), Scatter: linalg.NewMatrix(3, 3)}
	b := &Cluster{Weight: 1, Mean: linalg.NewVector(3), Scatter: linalg.NewMatrix(3, 3)}
	if !math.IsInf(CriticalValue(a, b, 3, 0.05), 1) {
		t.Error("undefined F test must return +Inf")
	}
}

func TestPooledAllMatchesEq7(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := gaussCluster(rng, 10, 2, linalg.Vector{0, 0}, 1)
	b := gaussCluster(rng, 14, 2, linalg.Vector{5, 5}, 2)
	got := PooledAll([]*Cluster{a, b})
	// Eq. 7: [ (m_a-1)Sa + (m_b-1)Sb ] / (m_a + m_b - 2) with S the
	// sample covariances = scatter/(m-1), i.e. (scatter_a+scatter_b)/(m-2).
	want := a.Scatter.Add(b.Scatter).Scale(1 / (a.Weight + b.Weight - 2))
	if !got.Equal(want, 1e-9) {
		t.Error("PooledAll does not match Eq. 7")
	}
}
