package classify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/stat"
	"repro/internal/synth"
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
		if _, in := cl.InsideRadius(0, x); in {
			inside++
		}
	}
	rate := float64(inside) / n
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("inside rate = %v, want ≈0.95", rate)
	}
	// A far point must be outside.
	if _, in := cl.InsideRadius(0, linalg.Vector{50, 50}); in {
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
	k, _ := cl.Best(in)
	if _, inside := cl.InsideRadius(k, in); k != 0 || !inside {
		t.Errorf("inlier assigned to %d (inside radius: %v)", k, inside)
	}
	out := linalg.Vector{30, 30}
	k, _ = cl.Best(out)
	if _, inside := cl.InsideRadius(k, out); inside {
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
	out, _ := ClassifyAll(start, points, Options{Scheme: cluster.Diagonal, Alpha: 0.05})
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
	out, _ := ClassifyAll(nil, points, Options{})
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

// TestAlgorithm2Property replays ClassifyAll one point at a time over
// generated mixtures (dims 2-8, both schemes, three α) and checks each
// decision against an independent reading of Algorithm 2: a point that
// joins a cluster joins the Eq. 10 winner and lay inside its χ²_p(1-α)
// radius at that moment (Lemma 1), and a point that seeds a new cluster
// lay outside the winner's radius. Each returned decision must say so,
// and the replay must end where one ClassifyAll over the whole batch
// ends, with the same decisions.
func TestAlgorithm2Property(t *testing.T) {
	var assigned, seeded int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + int(seed%7)
		opt := Options{
			Scheme: []cluster.Scheme{cluster.Diagonal, cluster.FullInverse}[(seed/7)%2],
			Alpha:  []float64{0.05, 0.01, 0.2}[rng.Intn(3)],
		}
		radius := stat.ChiSquareQuantile(1-opt.Alpha, float64(dim))
		vecs, _ := synth.Mixture[linalg.Vector](rng, 1+rng.Intn(3), 20, dim, 2+4*rng.Float64())
		pts := make([]cluster.Point, len(vecs))
		for i, j := range rng.Perm(len(vecs)) {
			pts[i] = cluster.Point{ID: i, Vec: vecs[j], Score: []float64{1, 3}[rng.Intn(2)]}
		}
		n0 := 2 + rng.Intn(8)
		start, rest := cluster.AgglomerateGap(pts[:n0]), pts[n0:]

		work := cloneAll(start)
		var replayed []Decision
		for _, p := range rest {
			before := cloneAll(work)
			k := eq10Winner(before, p.Vec, opt.Scheme)
			d := before[k].Mahalanobis(p.Vec, opt.Scheme)
			var dec []Decision
			work, dec = ClassifyAll(work, []cluster.Point{p}, opt)
			if want := (Decision{PointID: p.ID, Winner: k, Score: dec[0].Score, Mahalanobis: d, Radius: radius,
				New: len(work) == len(before)+1}); len(dec) != 1 || dec[0] != want {
				t.Fatalf("seed %d point %d: decisions %+v, want [%+v]", seed, p.ID, dec, want)
			}
			replayed = append(replayed, dec[0])
			if len(work) == len(before)+1 {
				seeded++
				if d < radius {
					t.Fatalf("seed %d point %d: new cluster, but d²=%v < χ²=%v of winner %d", seed, p.ID, d, radius, k)
				}
				continue
			}
			assigned++
			joined := -1
			for i := range before {
				if work[i].N() == before[i].N()+1 {
					joined = i
				}
			}
			if joined != k || d >= radius {
				t.Fatalf("seed %d point %d: joined %d (winner %d) at d²=%v, χ²=%v", seed, p.ID, joined, k, d, radius)
			}
		}

		batch, decisions := ClassifyAll(cloneAll(start), rest, opt)
		if len(batch) != len(work) {
			t.Fatalf("seed %d: batch made %d clusters, replay %d", seed, len(batch), len(work))
		}
		if !reflect.DeepEqual(decisions, replayed) {
			t.Fatalf("seed %d: batch decisions differ from the replay's", seed)
		}
		for i := range batch {
			if batch[i].N() != work[i].N() {
				t.Fatalf("seed %d cluster %d: batch has %d points, replay %d", seed, i, batch[i].N(), work[i].N())
			}
		}
	}
	if assigned == 0 || seeded == 0 {
		t.Fatalf("generated worlds exercised only one branch: %d assigned, %d seeded", assigned, seeded)
	}
	t.Logf("%d points assigned, %d seeded new clusters", assigned, seeded)
}

// eq10Winner is Algorithm 2 line 3 recomputed from the clusters: the
// index maximising -½ (x - x̄_i)' S_pooled⁻¹ (x - x̄_i) + ln(w_i), the
// first on ties.
func eq10Winner(cs []*cluster.Cluster, x linalg.Vector, scheme cluster.Scheme) int {
	inv := cluster.InverseOf(cluster.PooledAll(cs), scheme)
	total := cluster.TotalWeight(cs)
	k, best := 0, math.Inf(-1)
	for i, c := range cs {
		if s := -0.5*inv.QuadForm(x.Sub(c.Mean)) + math.Log(c.Weight/total); s > best {
			k, best = i, s
		}
	}
	return k
}

// cloneAll deep-copies clusters: ClassifyAll adds points in place.
func cloneAll(cs []*cluster.Cluster) []*cluster.Cluster {
	out := make([]*cluster.Cluster, len(cs))
	for i, c := range cs {
		out[i] = &cluster.Cluster{
			Points:  append([]cluster.Point(nil), c.Points...),
			Mean:    c.Mean.Clone(),
			Scatter: c.Scatter.Clone(),
			Weight:  c.Weight,
		}
	}
	return out
}
