package distance

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

func TestEuclidean(t *testing.T) {
	e := &Euclidean{Center: linalg.Vector{1, 1}}
	if got := e.Eval(linalg.Vector{4, 5}); got != 25 {
		t.Errorf("Eval = %v", got)
	}
	if e.Dim() != 2 {
		t.Error("Dim")
	}
	// Rectangle containing the center: bound 0.
	if got := e.LowerBound(linalg.Vector{0, 0}, linalg.Vector{2, 2}); got != 0 {
		t.Errorf("LowerBound inside = %v", got)
	}
	// Rectangle to the right: distance to the nearest corner/edge.
	if got := e.LowerBound(linalg.Vector{4, 0}, linalg.Vector{5, 2}); got != 9 {
		t.Errorf("LowerBound outside = %v", got)
	}
}

func TestQuadraticDiag(t *testing.T) {
	q := NewQuadraticDiag(linalg.Vector{0, 0}, linalg.Vector{1, 4})
	// d² = x² + 4y².
	if got := q.Eval(linalg.Vector{1, 1}); got != 5 {
		t.Errorf("Eval = %v", got)
	}
	// Exact MINDIST with weights.
	if got := q.LowerBound(linalg.Vector{2, 3}, linalg.Vector{5, 9}); got != 4+4*9 {
		t.Errorf("LowerBound = %v", got)
	}
}

func TestQuadraticFullMatchesDirect(t *testing.T) {
	inv := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{2, 0.5, 0.5, 1}}
	q := NewQuadraticFull(linalg.Vector{1, -1}, inv)
	x := linalg.Vector{2, 1}
	d := x.Sub(linalg.Vector{1, -1})
	want := inv.QuadForm(d)
	if got := q.Eval(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("Eval = %v want %v", got, want)
	}
}

// Property: the rectangle lower bound never exceeds Eval at any sampled
// point inside the rectangle — for every metric family.
func TestPropLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	metrics := func(r *rand.Rand) []Metric {
		center := linalg.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		invd := linalg.Vector{0.1 + r.Float64(), 0.1 + r.Float64(), 0.1 + r.Float64()}
		a := linalg.Identity(3)
		for i := range a.Data {
			a.Data[i] += 0.3 * r.NormFloat64()
		}
		spd := a.Mul(a.T())
		c2 := linalg.Vector{r.NormFloat64() * 2, r.NormFloat64() * 2, r.NormFloat64() * 2}
		qd := NewQuadraticDiag(center, invd)
		qf := NewQuadraticFull(c2, spd)
		return []Metric{
			&Euclidean{Center: center},
			qd,
			qf,
			NewDisjunctive([]*Quadratic{qd, qf}, []float64{2, 3}),
			NewAggregate([]Metric{&Euclidean{Center: center}, &Euclidean{Center: c2}}, -2),
			NewAggregate([]Metric{&Euclidean{Center: center}, &Euclidean{Center: c2}}, 1),
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo := linalg.Vector{r.NormFloat64() * 2, r.NormFloat64() * 2, r.NormFloat64() * 2}
		hi := lo.Clone()
		for i := range hi {
			hi[i] += r.Float64() * 3
		}
		for _, m := range metrics(r) {
			lb := m.LowerBound(lo, hi)
			for s := 0; s < 30; s++ {
				x := make(linalg.Vector, 3)
				for i := range x {
					x[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
				}
				if ev := m.Eval(x); ev < lb-1e-9*(1+math.Abs(ev)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDisjunctiveClosestClusterDominates(t *testing.T) {
	// Two distant unit clusters; a point near one must have small
	// aggregate distance even though it is far from the other — Eq. 5's
	// fuzzy-OR behaviour that enables disjunctive queries.
	q1 := NewQuadraticDiag(linalg.Vector{-10, 0}, linalg.Vector{1, 1})
	q2 := NewQuadraticDiag(linalg.Vector{10, 0}, linalg.Vector{1, 1})
	d := NewDisjunctive([]*Quadratic{q1, q2}, []float64{1, 1})

	near := d.Eval(linalg.Vector{-10, 0.1})
	mid := d.Eval(linalg.Vector{0, 0})
	if near >= mid {
		t.Errorf("near-cluster distance %v >= midpoint distance %v", near, mid)
	}
	// Aggregate is bounded above by g × the distance to the closest part
	// (when all weights are equal, it is at most g·min d_i).
	minPart := math.Min(q1.Eval(linalg.Vector{-10, 0.1}), q2.Eval(linalg.Vector{-10, 0.1}))
	if near > 2*minPart+1e-9 {
		t.Errorf("aggregate %v exceeds g·min %v", near, 2*minPart)
	}
}

func TestDisjunctiveWeightsBias(t *testing.T) {
	// Heavier cluster pulls equidistant points closer.
	q1 := NewQuadraticDiag(linalg.Vector{-1, 0}, linalg.Vector{1, 1})
	q2 := NewQuadraticDiag(linalg.Vector{1, 0}, linalg.Vector{1, 1})
	light := NewDisjunctive([]*Quadratic{q1, q2}, []float64{1, 1})
	heavy1 := NewDisjunctive([]*Quadratic{q1, q2}, []float64{10, 1})
	x := linalg.Vector{-0.5, 0} // nearer q1
	if heavy1.Eval(x) >= light.Eval(x) {
		t.Error("upweighting the nearby cluster must reduce the aggregate distance")
	}
}

func TestDisjunctiveAtRepresentative(t *testing.T) {
	q1 := NewQuadraticDiag(linalg.Vector{0, 0}, linalg.Vector{1, 1})
	q2 := NewQuadraticDiag(linalg.Vector{5, 5}, linalg.Vector{1, 1})
	d := NewDisjunctive([]*Quadratic{q1, q2}, []float64{1, 1})
	if got := d.Eval(linalg.Vector{0, 0}); got > 1e-9 {
		t.Errorf("distance at representative = %v, want ≈0", got)
	}
}

func TestFromClustersMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	mk := func(cx, cy float64) *cluster.Cluster {
		c := cluster.New(2)
		for i := 0; i < 20; i++ {
			c.Add(cluster.Point{
				Vec:   linalg.Vector{cx + rng.NormFloat64(), cy + rng.NormFloat64()},
				Score: 1,
			})
		}
		return c
	}
	cs := []*cluster.Cluster{mk(0, 0), mk(8, 8)}
	tau := float64(cs[0].Dim() + 1)
	d, _ := FromClustersShrunkInfo(cs, cluster.Diagonal, tau)
	x := linalg.Vector{1, 1}
	// Manual Eq. 5 with the pooled-shrunk covariances a session uses.
	pooled := cluster.PooledAll(cs)
	var denom, total float64
	for _, c := range cs {
		inv := cluster.InverseDiagOf(cluster.ShrunkCov(c, pooled, tau))
		diff := x.Sub(c.Mean)
		var di float64
		for i := range diff {
			di += diff[i] * diff[i] * inv[i]
		}
		denom += c.Weight / di
		total += c.Weight
	}
	want := total / denom
	if got := d.Eval(x); math.Abs(got-want) > 1e-9 {
		t.Errorf("Eval = %v want %v", got, want)
	}
}

func TestAggregateAlphaNegativeIsFuzzyOR(t *testing.T) {
	e1 := &Euclidean{Center: linalg.Vector{0, 0}}
	e2 := &Euclidean{Center: linalg.Vector{100, 100}}
	a := NewAggregate([]Metric{e1, e2}, -2)
	// Near e1 the aggregate must be close to e1's distance scaled by at
	// most the g^(1/|α|) factor, not dominated by the far part.
	x := linalg.Vector{1, 0}
	if got := a.Eval(x); got > 2*e1.Eval(x) {
		t.Errorf("fuzzy OR failed: aggregate %v vs near part %v", got, e1.Eval(x))
	}
	// Positive α behaves like an AND-ish mean: midpoint beats extremes.
	and := NewAggregate([]Metric{e1, e2}, 1)
	mid := and.Eval(linalg.Vector{50, 50})
	nearOne := and.Eval(linalg.Vector{0, 0})
	if mid >= nearOne {
		t.Errorf("α=1 mean: midpoint %v should beat extreme %v", mid, nearOne)
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic(t, func() { NewQuadraticDiag(linalg.Vector{1}, linalg.Vector{1, 2}) })
	mustPanic(t, func() { NewDisjunctive(nil, nil) })
	mustPanic(t, func() {
		q := NewQuadraticDiag(linalg.Vector{0}, linalg.Vector{1})
		NewDisjunctive([]*Quadratic{q}, []float64{0})
	})
	mustPanic(t, func() { NewAggregate(nil, -2) })
	mustPanic(t, func() {
		NewAggregate([]Metric{&Euclidean{Center: linalg.Vector{0}}}, 0)
	})
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

func TestConvexCombination(t *testing.T) {
	q1 := NewQuadraticDiag(linalg.Vector{-2, 0}, linalg.Vector{1, 1})
	q2 := NewQuadraticDiag(linalg.Vector{2, 0}, linalg.Vector{1, 1})
	c := NewConvexCombination([]*Quadratic{q1, q2}, []float64{1, 3})
	if c.Dim() != 2 {
		t.Errorf("Dim = %d", c.Dim())
	}
	// Weighted mean: (1·d1 + 3·d2)/4 at the origin: d1=d2=4 → 4.
	if got := c.Eval(linalg.Vector{0, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Eval = %v", got)
	}
	// Bias check: the heavier representative pulls the minimum toward it.
	nearHeavy := c.Eval(linalg.Vector{1, 0})
	nearLight := c.Eval(linalg.Vector{-1, 0})
	if nearHeavy >= nearLight {
		t.Errorf("heavy side %v >= light side %v", nearHeavy, nearLight)
	}
	// The single convex contour: midpoint beats both mode centers when
	// weights are equal — the failure mode the paper criticizes.
	eq := NewConvexCombination([]*Quadratic{q1, q2}, []float64{1, 1})
	if eq.Eval(linalg.Vector{0, 0}) >= eq.Eval(linalg.Vector{-2, 0}) {
		t.Error("equal-weight convex combination must prefer the midpoint")
	}
	// Lower bound soundness over a box.
	lb := c.LowerBound(linalg.Vector{-1, -1}, linalg.Vector{1, 1})
	for x := -1.0; x <= 1; x += 0.25 {
		if v := c.Eval(linalg.Vector{x, 0}); v < lb-1e-9 {
			t.Fatalf("Eval %v below bound %v", v, lb)
		}
	}
	mustPanic(t, func() { NewConvexCombination(nil, nil) })
	mustPanic(t, func() { NewConvexCombination([]*Quadratic{q1}, []float64{0}) })
}

func TestFromClusterBothSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c := cluster.New(2)
	for i := 0; i < 20; i++ {
		c.Add(cluster.Point{
			Vec:   linalg.Vector{rng.NormFloat64(), 2 * rng.NormFloat64()},
			Score: 1,
		})
	}
	for _, scheme := range []cluster.Scheme{cluster.Diagonal, cluster.FullInverse} {
		q := NewQuadraticDiag(c.Mean, c.InverseDiag())
		if scheme == cluster.FullInverse {
			q = NewQuadraticFull(c.Mean, c.InverseCov(cluster.FullInverse))
		}
		if q.Dim() != 2 {
			t.Fatalf("%v: Dim = %d", scheme, q.Dim())
		}
		// The cluster centroid is the minimum.
		if q.Eval(c.Mean) > q.Eval(linalg.Vector{c.Mean[0] + 1, c.Mean[1]}) {
			t.Errorf("%v: centroid is not the minimum", scheme)
		}
	}
}

func TestFromClustersShrunkTauZero(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	c := cluster.New(2)
	for i := 0; i < 15; i++ {
		c.Add(cluster.Point{Vec: linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}, Score: 1})
	}
	// With one cluster and tau=0 the disjunctive metric reduces to that
	// cluster's raw Mahalanobis distance.
	d, _ := FromClustersShrunkInfo([]*cluster.Cluster{c}, cluster.Diagonal, 0)
	x := linalg.Vector{0.7, -0.3}
	want := c.Mahalanobis(x, cluster.Diagonal)
	if got := d.Eval(x); math.Abs(got-want) > 1e-9 {
		t.Errorf("Eval = %v, want %v", got, want)
	}
}

func TestMetricDims(t *testing.T) {
	e := &Euclidean{Center: linalg.Vector{0, 0, 0}}
	a := NewAggregate([]Metric{e}, -2)
	if a.Dim() != 3 {
		t.Errorf("Aggregate.Dim = %d", a.Dim())
	}
	q1 := NewQuadraticDiag(linalg.Vector{0, 0, 0}, linalg.Vector{1, 1, 1})
	d := NewDisjunctive([]*Quadratic{q1}, []float64{1})
	if d.Dim() != 3 {
		t.Errorf("Disjunctive.Dim = %d", d.Dim())
	}
}

// Concurrent Eval on one full-scheme Quadratic (and the Disjunctive
// aggregate over it) must be race-free and exact: the full-scheme path
// used to write a shared scratch buffer per call, a data race under the
// parallel k-NN workers and any concurrent engine user. Run with -race.
func TestQuadraticConcurrentEvalFullScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const dim = 8
	center := make(linalg.Vector, dim)
	for i := range center {
		center[i] = rng.NormFloat64()
	}
	inv := linalg.Identity(dim)
	for i := 0; i < dim; i++ {
		inv.Row(i)[i] = 0.5 + rng.Float64()
	}
	q := NewQuadraticFull(center, inv)
	d := NewDisjunctive([]*Quadratic{q}, []float64{1})

	points := make([]linalg.Vector, 256)
	want := make([]float64, len(points))
	for i := range points {
		v := make(linalg.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 2
		}
		points[i] = v
		want[i] = q.Eval(v)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, v := range points {
					if got := q.Eval(v); got != want[i] {
						t.Errorf("concurrent Eval(%d) = %v, want %v", i, got, want[i])
						return
					}
					_ = d.Eval(v)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCenters(t *testing.T) {
	c1 := linalg.Vector{1, 2}
	c2 := linalg.Vector{3, 4}
	ones := linalg.Vector{1, 1}
	if got := Centers(&Euclidean{Center: c1}); len(got) != 1 || &got[0][0] != &c1[0] {
		t.Fatalf("euclidean centers = %v", got)
	}
	if got := Centers(NewQuadraticDiag(c2, ones)); len(got) != 1 || got[0][0] != 3 {
		t.Fatalf("quadratic centers = %v", got)
	}
	dj := NewDisjunctive([]*Quadratic{NewQuadraticDiag(c1, ones), NewQuadraticDiag(c2, ones)}, []float64{1, 1})
	if got := Centers(dj); len(got) != 2 || got[1][0] != 3 {
		t.Fatalf("disjunctive centers = %v", got)
	}
	ag := NewAggregate([]Metric{&Euclidean{Center: c1}, dj}, -2)
	if got := Centers(ag); len(got) != 3 {
		t.Fatalf("aggregate centers = %v", got)
	}
	if got := Centers(nil); got != nil {
		t.Fatalf("nil metric centers = %v", got)
	}
}
