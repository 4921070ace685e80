package classify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

func gaussCluster(rng *rand.Rand, n, dim int, center linalg.Vector, scale float64) *cluster.Cluster {
	c := cluster.New(dim)
	for i := 0; i < n; i++ {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = center[d] + scale*rng.NormFloat64()
		}
		c.Add(cluster.Point{ID: i, Vec: v, Score: 1})
	}
	return c
}

func TestBestPicksNearestCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := gaussCluster(rng, 30, 2, linalg.Vector{0, 0}, 1)
	b := gaussCluster(rng, 30, 2, linalg.Vector{10, 10}, 1)
	cl := New([]*cluster.Cluster{a, b}, Options{Scheme: cluster.FullInverse})

	if k, _ := cl.Best(linalg.Vector{0.5, -0.5}); k != 0 {
		t.Errorf("point near A classified to %d", k)
	}
	if k, _ := cl.Best(linalg.Vector{9, 11}); k != 1 {
		t.Errorf("point near B classified to %d", k)
	}
}

func TestPriorBreaksTies(t *testing.T) {
	// Equidistant point: the cluster with the larger weight (prior) wins.
	rng := rand.New(rand.NewSource(31))
	a := gaussCluster(rng, 10, 2, linalg.Vector{-5, 0}, 1)
	heavy := cluster.New(2)
	for i := 0; i < 10; i++ {
		v := linalg.Vector{5 + rng.NormFloat64(), rng.NormFloat64()}
		heavy.Add(cluster.Point{ID: 100 + i, Vec: v, Score: 3}) // 3x the weight
	}
	// Force symmetric means so the midpoint is exactly equidistant.
	a.Mean = linalg.Vector{-5, 0}
	heavy.Mean = linalg.Vector{5, 0}
	cl := New([]*cluster.Cluster{a, heavy}, Options{Scheme: cluster.Diagonal})
	if k, _ := cl.Best(linalg.Vector{0, 0}); k != 1 {
		t.Errorf("tie should go to the heavier cluster, got %d", k)
	}
}

func TestEffectiveRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := gaussCluster(rng, 200, 2, linalg.Vector{0, 0}, 1)
	cl := New([]*cluster.Cluster{a}, Options{Scheme: cluster.FullInverse, Alpha: 0.05})

	// ~95% of same-distribution points must fall inside the radius.
	inside := 0
	const n = 2000
	for i := 0; i < n; i++ {
		x := linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
		if cl.InsideRadius(0, x) {
			inside++
		}
	}
	rate := float64(inside) / n
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("inside rate = %v, want ≈0.95", rate)
	}
	// A far point must be outside.
	if cl.InsideRadius(0, linalg.Vector{50, 50}) {
		t.Error("far point inside effective radius")
	}
}

func TestRadiusGrowsAsAlphaShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := gaussCluster(rng, 30, 3, linalg.Vector{0, 0, 0}, 1)
	r05 := New([]*cluster.Cluster{a}, Options{Alpha: 0.05}).radius
	r01 := New([]*cluster.Cluster{a}, Options{Alpha: 0.01}).radius
	if r01 <= r05 {
		t.Errorf("radius must grow as α shrinks: α=.01 → %v, α=.05 → %v", r01, r05)
	}
}

// Algorithm 2's decision: an inlier joins the Eq. 10 winner; a point
// outside the winner's effective radius seeds a new cluster.
func TestAssignOutlierSeedsNewCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	a := gaussCluster(rng, 30, 2, linalg.Vector{0, 0}, 1)
	cl := New([]*cluster.Cluster{a}, Options{Scheme: cluster.Diagonal, Alpha: 0.05})
	in := linalg.Vector{0.3, -0.2}
	if k, _ := cl.Best(in); k != 0 || !cl.InsideRadius(k, in) {
		t.Errorf("inlier assigned to %d (inside radius: %v)", k, cl.InsideRadius(k, in))
	}
	out := linalg.Vector{30, 30}
	if k, _ := cl.Best(out); cl.InsideRadius(k, out) {
		t.Errorf("outlier joined cluster %d, want a new cluster", k)
	}
}

func TestClassifyAll(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	start := []*cluster.Cluster{gaussCluster(rng, 30, 2, linalg.Vector{0, 0}, 1)}
	points := []cluster.Point{
		{ID: 1000, Vec: linalg.Vector{0.5, 0.5}, Score: 1},   // joins cluster 0
		{ID: 1001, Vec: linalg.Vector{20, 20}, Score: 1},     // new cluster
		{ID: 1002, Vec: linalg.Vector{20.5, 19.5}, Score: 1}, // joins the new one or another new
	}
	out := ClassifyAll(start, points, Options{Scheme: cluster.Diagonal, Alpha: 0.05})
	if len(out) < 2 {
		t.Fatalf("expected at least 2 clusters, got %d", len(out))
	}
	// Point 1000 must be in the first cluster.
	found := false
	for _, p := range out[0].Points {
		if p.ID == 1000 {
			found = true
		}
	}
	if !found {
		t.Error("inlier point did not join cluster 0")
	}
	// Total points preserved.
	n := 0
	for _, c := range out {
		n += c.N()
	}
	if n != 33 {
		t.Errorf("point count = %d, want 33", n)
	}
}

func TestClassifyAllFromEmpty(t *testing.T) {
	points := []cluster.Point{
		{ID: 0, Vec: linalg.Vector{0, 0}, Score: 1},
		{ID: 1, Vec: linalg.Vector{0.1, 0}, Score: 1},
	}
	out := ClassifyAll(nil, points, Options{})
	if len(out) == 0 {
		t.Fatal("no clusters created")
	}
	n := 0
	for _, c := range out {
		n += c.N()
	}
	if n != 2 {
		t.Errorf("point count = %d", n)
	}
}

func TestErrorRateWellSeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cs := []*cluster.Cluster{
		gaussCluster(rng, 25, 3, linalg.Vector{0, 0, 0}, 0.5),
		gaussCluster(rng, 25, 3, linalg.Vector{10, 10, 10}, 0.5),
	}
	if e := ErrorRate(cs, Options{Scheme: cluster.FullInverse}); e > 0.02 {
		t.Errorf("error rate %v for well-separated clusters, want ≈0", e)
	}
}

func TestErrorRateOverlapping(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	cs := []*cluster.Cluster{
		gaussCluster(rng, 25, 3, linalg.Vector{0, 0, 0}, 1),
		gaussCluster(rng, 25, 3, linalg.Vector{0.5, 0, 0}, 1),
	}
	e := ErrorRate(cs, Options{Scheme: cluster.FullInverse})
	if e < 0.1 {
		t.Errorf("error rate %v for heavily overlapping clusters, want high", e)
	}
	if e > 1 {
		t.Errorf("error rate %v out of range", e)
	}
}

// Theorem 1 property: the classification decision is invariant under
// invertible linear transforms with the full-inverse scheme.
func TestClassificationLinearInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 20; trial++ {
		a := gaussCluster(rng, 15, 3, linalg.Vector{0, 0, 0}, 1)
		b := gaussCluster(rng, 15, 3, linalg.Vector{3, 1, -2}, 1)
		cl := New([]*cluster.Cluster{a, b}, Options{Scheme: cluster.FullInverse})

		A := linalg.Identity(3).Scale(1.5)
		for i := range A.Data {
			A.Data[i] += 0.4 * rng.NormFloat64()
		}
		if math.Abs(A.Det()) < 0.3 {
			continue
		}
		ta := transform(a, A)
		tb := transform(b, A)
		tcl := New([]*cluster.Cluster{ta, tb}, Options{Scheme: cluster.FullInverse})

		for probe := 0; probe < 10; probe++ {
			x := linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
			k1, _ := cl.Best(x)
			k2, _ := tcl.Best(A.MulVec(x))
			if k1 != k2 {
				t.Fatalf("trial %d: classification changed under linear transform", trial)
			}
		}
	}
}

func transform(c *cluster.Cluster, A *linalg.Matrix) *cluster.Cluster {
	out := cluster.New(c.Dim())
	for _, p := range c.Points {
		out.Add(cluster.Point{ID: p.ID, Vec: A.MulVec(p.Vec), Score: p.Score})
	}
	return out
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(nil, Options{})
}

func TestRadiusForWidensSmallClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	small := gaussCluster(rng, 6, 3, linalg.Vector{0, 0, 0}, 1)
	big := gaussCluster(rng, 500, 3, linalg.Vector{10, 0, 0}, 1)
	cl := New([]*cluster.Cluster{small, big}, Options{Alpha: 0.05})

	rSmall := cl.RadiusFor(0)
	rBig := cl.RadiusFor(1)
	if rSmall <= rBig {
		t.Errorf("small-cluster radius %v <= big-cluster radius %v", rSmall, rBig)
	}
	// Large n converges to the χ² radius.
	if math.Abs(rBig-cl.radius)/cl.radius > 0.05 {
		t.Errorf("big-cluster radius %v far from χ² %v", rBig, cl.radius)
	}
	// Degenerate cluster (n <= p+1) gets the generous fallback.
	tiny := cluster.FromPoint(cluster.Point{Vec: linalg.Vector{5, 5, 5}, Score: 1})
	cl2 := New([]*cluster.Cluster{tiny, big}, Options{Alpha: 0.05})
	if got := cl2.RadiusFor(0); got != 4*cl2.radius {
		t.Errorf("degenerate radius = %v, want %v", got, 4*cl2.radius)
	}
}

func TestPredictiveRadiusCoverage(t *testing.T) {
	// A new point from the same population must fall inside the
	// predictive radius ≈ 95% of the time even when the cluster is small
	// — the finite-sample correction the plain χ² radius lacks.
	rng := rand.New(rand.NewSource(41))
	inside, total := 0, 0
	for trial := 0; trial < 300; trial++ {
		c := gaussCluster(rng, 8, 3, linalg.Vector{0, 0, 0}, 1)
		cl := New([]*cluster.Cluster{c}, Options{Alpha: 0.05, Scheme: cluster.FullInverse})
		x := linalg.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		total++
		if cl.InsideRadius(0, x) {
			inside++
		}
	}
	rate := float64(inside) / float64(total)
	if rate < 0.88 {
		t.Errorf("predictive radius coverage = %v, want ≈0.95", rate)
	}
}
