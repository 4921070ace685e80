package distance

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

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

// Property: the rectangle lower bound never exceeds Eval anywhere in
// the rectangle, in floating point — a swept search skips a storage
// block on it without evaluating its rows, and the tree prunes a node on
// it, so a bound one ulp over a row's distance loses that row. The cases
// are generated over dims 1–48 (lowerBoundMetrics, lowerBoundBox), and
// each box is probed where the bound is tight: its corners (every one up
// to dim 10, 256 drawn above), every face midpoint, the point of the box
// nearest each center, and interior samples.
func TestPropLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	boxes := 6
	if testing.Short() {
		boxes = 2
	}
	for dim := 1; dim <= 48; dim++ {
		for b := 0; b < boxes; b++ {
			ms := lowerBoundMetrics(rng, dim)
			lo, hi := lowerBoundBox(rng, ms)
			for name, m := range ms {
				checkLowerBound(t, fmt.Sprintf("dim %d box %d %s", dim, b, name), m, lo, hi, rng)
			}
		}
	}
}

// FuzzLowerBound is TestPropLowerBoundSound over fuzzer-chosen seeds,
// dims and box scales (a CI smoke step).
func FuzzLowerBound(f *testing.F) {
	f.Add(int64(1), uint8(3), 1.0)
	f.Add(int64(2), uint8(16), 0.0)
	f.Add(int64(3), uint8(47), 1e3)
	f.Add(int64(4), uint8(8), 1e-6)
	f.Fuzz(func(t *testing.T, seed int64, dim8 uint8, width float64) {
		if math.IsNaN(width) || math.IsInf(width, 0) || math.Abs(width) > 1e100 {
			t.Skip()
		}
		dim := int(dim8)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		ms := lowerBoundMetrics(rng, dim)
		lo, hi := lowerBoundBox(rng, ms)
		for i := range hi {
			hi[i] += math.Abs(width) * rng.Float64()
		}
		for name, m := range ms {
			checkLowerBound(t, name, m, lo, hi, rng)
		}
	})
}

// lowerBoundMetrics draws every metric family a search bounds boxes with
// at dimension dim: Euclidean; both quadratic schemes over a well-
// conditioned weight and over a floored or regularised covariance (a
// cluster flat along some axes, as a session's young clusters are); the
// served Eq. 5 metric over those clusters; Eq. 5 over 1–5 mixed parts
// with unequal weights; and the α-mean aggregates.
func lowerBoundMetrics(rng *rand.Rand, dim int) map[string]Metric {
	invDiag := make(linalg.Vector, dim)
	for i := range invDiag {
		invDiag[i] = math.Pow(10, 4*rng.Float64()-2)
	}
	parts := []*Quadratic{
		NewQuadraticDiag(randVec(rng, dim, 2), invDiag),
		NewQuadraticFull(randVec(rng, dim, 2), randSPDMatrix(rng, dim, 0.5)),
	}
	var cs []*cluster.Cluster
	for range 2 {
		c := flatCluster(rng, dim)
		cov := c.SampleCov()
		inv, floored := cluster.InverseDiagOfInfo(cov)
		w, regularised := cluster.InverseOfInfo(cov, cluster.FullInverse)
		if !floored || !regularised {
			panic("lowerBoundMetrics: a flat cluster's covariance was not degraded")
		}
		parts = append(parts, NewQuadraticDiag(c.Mean, inv), NewQuadraticFull(c.Mean, w))
		cs = append(cs, c)
	}
	ms := map[string]Metric{
		"euclidean":          &Euclidean{Center: randVec(rng, dim, 2)},
		"quad-diag":          parts[0],
		"quad-full":          parts[1],
		"quad-diag-floored":  parts[2],
		"quad-full-regular":  parts[3],
		"aggregate-2":        NewAggregate([]Metric{parts[0], &Euclidean{Center: randVec(rng, dim, 2)}}, -2),
		"aggregate-1":        NewAggregate([]Metric{parts[1], parts[2]}, 1),
		"aggregate-neg-half": NewAggregate([]Metric{parts[3], parts[4]}, -0.5),
	}
	for _, scheme := range []cluster.Scheme{cluster.Diagonal, cluster.FullInverse} {
		m, _ := FromClustersShrunkInfo(cs, scheme, float64(dim+1))
		ms["eq5-"+scheme.String()] = m
	}
	for n := 1; n <= 5; n++ {
		ps := make([]*Quadratic, n)
		ws := make([]float64, n)
		for i := range ps {
			ps[i] = parts[rng.Intn(len(parts))]
			ws[i] = 0.1 + 5*rng.Float64()
		}
		ms[fmt.Sprintf("disjunctive-%d", n)] = NewDisjunctive(ps, ws)
	}
	return ms
}

// flatCluster is a cluster of 2–dim+1 points that share their
// coordinate on at least one axis, so its sample covariance is singular
// and both schemes take their fallback.
func flatCluster(rng *rand.Rand, dim int) *cluster.Cluster {
	base := randVec(rng, dim, 3)
	flat := make([]bool, dim)
	flat[rng.Intn(dim)] = true
	for i := range flat {
		flat[i] = flat[i] || rng.Intn(4) == 0
	}
	pts := make([]cluster.Point, 2+rng.Intn(dim))
	for j := range pts {
		v := base.Add(randVec(rng, dim, 0.5))
		for i, f := range flat {
			if f {
				v[i] = base[i]
			}
		}
		pts[j] = cluster.Point{ID: j, Vec: v, Score: 1}
	}
	return cluster.FromPoints(pts)
}

// lowerBoundBox draws a box around a point near one of the metrics'
// centers, so a center lies inside it on some axes and outside on the
// rest; an axis is zero-width one time in eight, as in a block whose
// rows share a coordinate.
func lowerBoundBox(rng *rand.Rand, ms map[string]Metric) (lo, hi linalg.Vector) {
	var centers []linalg.Vector
	for _, m := range ms {
		centers = append(centers, Centers(m)...)
	}
	at := centers[rng.Intn(len(centers))]
	lo, hi = make(linalg.Vector, len(at)), make(linalg.Vector, len(at))
	for i, c := range at {
		lo[i] = c + rng.NormFloat64()*2
		hi[i] = lo[i]
		if rng.Intn(8) != 0 {
			hi[i] += rng.ExpFloat64()
		}
	}
	return lo, hi
}

// checkLowerBound fails unless m.Eval(x) >= m.LowerBound(lo, hi) at the
// box's corners, face midpoints, nearest points to m's centers and 30
// interior samples.
func checkLowerBound(t *testing.T, name string, m Metric, lo, hi linalg.Vector, rng *rand.Rand) {
	t.Helper()
	lb := m.LowerBound(lo, hi)
	dim := len(lo)
	check := func(what string, x linalg.Vector) {
		t.Helper()
		if ev := m.Eval(x); !(ev >= lb) {
			t.Fatalf("%s: Eval at %s = %v < LowerBound %v (x=%v lo=%v hi=%v)", name, what, ev, lb, x, lo, hi)
		}
	}
	x := make(linalg.Vector, dim)
	if dim <= 10 {
		for mask := 0; mask < 1<<dim; mask++ {
			for i := range x {
				x[i] = lo[i]
				if mask>>i&1 == 1 {
					x[i] = hi[i]
				}
			}
			check("corner", x)
		}
	} else {
		for range 256 {
			for i := range x {
				x[i] = lo[i]
				if rng.Intn(2) == 1 {
					x[i] = hi[i]
				}
			}
			check("corner", x)
		}
	}
	for f := 0; f < 2*dim; f++ {
		for i := range x {
			x[i] = lo[i] + (hi[i]-lo[i])/2
		}
		x[f/2] = lo[f/2]
		if f%2 == 1 {
			x[f/2] = hi[f/2]
		}
		check("face midpoint", x)
	}
	for _, c := range Centers(m) {
		for i := range x {
			x[i] = min(max(c[i], lo[i]), hi[i])
		}
		check("nearest point", x)
	}
	for range 30 {
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		check("interior sample", x)
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
