package distance

import (
	"fmt"
	"math"
	"math/big"
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

// Property: the rectangle and ball lower bounds never exceed Eval
// anywhere in the rectangle or ball, in floating point — a swept search
// skips a storage block on either without evaluating its rows, and the
// tree prunes a node on the first, so a bound one ulp over a row's
// distance loses that row. The cases are generated over dims 1–48
// (lowerBoundMetrics, lowerBoundBox), and each box is probed where the
// bound is tight: its corners (every one up to dim 10, 256 drawn above),
// every face midpoint, the point of the box nearest each center, and
// interior samples; each ball, around the box midpoint, at its midpoint,
// on its sphere as close as floating point allows (axis points, drawn
// directions, the point nearest each center) and inside it. The same
// balls hold the tangent planes' row test to the row kernel
// (checkTangents): a row it rejects must have Eval and EvalBatch above
// the bound.
func TestPropLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	boxes := 6
	if testing.Short() {
		boxes = 2
	}
	positive := 0
	var planes tangentCounts
	for dim := 1; dim <= 48; dim++ {
		for b := 0; b < boxes; b++ {
			ms := lowerBoundMetrics(rng, dim)
			lo, hi := lowerBoundBox(rng, ms)
			mid, r := lowerBoundBall(rng, lo, hi)
			for name, m := range ms {
				label := fmt.Sprintf("dim %d box %d %s", dim, b, name)
				checkLowerBound(t, label, m, lo, hi, rng)
				if checkBallLowerBound(t, label, m.(BallMetric), mid, r, rng) > epsilonDist {
					positive++
				}
			}
			if b == 0 { // the planes are checked at ~30 metrics a ball
				checkTangents(t, fmt.Sprintf("dim %d box %d", dim, b), ms, mid, r, rng, &planes)
			}
		}
	}
	if positive == 0 {
		t.Fatal("no ball bound was positive: the property checked nothing")
	}
	t.Logf("tangent planes: %+v", planes)
	if planes.anchored == 0 || planes.rejected == 0 || planes.tight == 0 {
		t.Fatalf("the tangent test checked nothing: %+v", planes)
	}
}

// Non-finite balls — a radius that overflowed to +Inf, a NaN midpoint —
// bound nothing: every family returns a finite value no larger than its
// bound over the whole space, and Euclidean and the quadratic forms
// return 0. No metric anchors tangent planes on them, nor on a ball so
// far out or so small that the row kernel's rounding stops being
// relative, while every full-scheme form anchors on a plain ball.
func TestBallLowerBoundNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ms := lowerBoundMetrics(rng, 4)
	mid := randVec(rng, 4, 1)
	for name, m := range tangentMetrics(rng, 4, mid) {
		ms["tangent-"+name] = m
		if !m.Anchor(new(Tangent), mid, 1) {
			t.Errorf("%s: no anchor on a plain ball", name)
		}
	}
	nan := linalg.Vector{math.NaN(), 0, 0, 0}
	huge := linalg.Vector{1e300, -1e300, 1e300, 0}
	far := linalg.Vector{1e200, 0, 0, 0}
	for name, m := range ms {
		bm := m.(BallMetric)
		floor := m.LowerBound(linalg.Vector{-math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64},
			linalg.Vector{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64})
		for _, c := range []struct {
			what string
			mid  linalg.Vector
			r    float64
		}{{"+Inf radius", mid, math.Inf(1)}, {"NaN radius", mid, math.NaN()}, {"NaN midpoint", nan, 1}, {"overflowing midpoint", huge, 1e300}, {"far midpoint", far, 1}} {
			got := bm.BallLowerBound(c.mid, c.r)
			if math.IsNaN(got) || got > floor {
				t.Errorf("%s %s: BallLowerBound = %v, want at most %v", name, c.what, got, floor)
			}
			if _, isQuad := m.(*Quadratic); (isQuad || name == "euclidean") && got != 0 {
				t.Errorf("%s %s: BallLowerBound = %v, want 0", name, c.what, got)
			}
			if tm, ok := m.(TangentMetric); ok && tm.Anchor(new(Tangent), c.mid, c.r) {
				t.Errorf("%s %s: anchored", name, c.what)
			}
		}
	}
	if NewQuadraticFull(linalg.Vector{0, 0}, linalg.Identity(2)).Anchor(new(Tangent), linalg.Vector{0x1p-500, 0}, 0x1p-500) {
		t.Error("a ball of radius 2⁻⁵⁰⁰ at the centre anchored")
	}
}

// FuzzLowerBound is TestPropLowerBoundSound over fuzzer-chosen seeds,
// dims and box scales: boxes, balls and tangent planes alike (a CI smoke
// step).
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
		mid, r := lowerBoundBall(rng, lo, hi)
		for name, m := range ms {
			checkLowerBound(t, name, m, lo, hi, rng)
			checkBallLowerBound(t, name, m.(BallMetric), mid, r, rng)
		}
		checkTangents(t, fmt.Sprintf("dim %d", dim), ms, mid, r, rng, new(tangentCounts))
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

// lowerBoundBall draws a ball around the box's midpoint (computed as a
// store computes a block's: lo/2 + hi/2): radius 0 one time in eight, as
// in a block of one row, otherwise up to the box's half diagonal.
func lowerBoundBall(rng *rand.Rand, lo, hi linalg.Vector) (mid linalg.Vector, r float64) {
	mid = make(linalg.Vector, len(lo))
	var half float64
	for i := range lo {
		mid[i] = lo[i]*0.5 + hi[i]*0.5
		half += (hi[i] - lo[i]) * (hi[i] - lo[i]) / 4
	}
	if rng.Intn(8) == 0 {
		return mid, 0
	}
	return mid, math.Sqrt(half) * rng.Float64()
}

// checkBallLowerBound fails unless m.Eval(x) >= m.BallLowerBound(mid, r)
// at every one of the ball's probes (ballProbes). It returns the bound.
func checkBallLowerBound(t *testing.T, name string, m BallMetric, mid linalg.Vector, r float64, rng *rand.Rand) float64 {
	t.Helper()
	lb := m.BallLowerBound(mid, r)
	if math.IsNaN(lb) || lb < 0 {
		t.Fatalf("%s: BallLowerBound(%v, %v) = %v", name, mid, r, lb)
	}
	for _, p := range ballProbes(rng, mid, r, Centers(m)) {
		if ev := m.Eval(p.x); !(ev >= lb) {
			t.Fatalf("%s: Eval at %s = %v < BallLowerBound %v (x=%v mid=%v r=%v)", name, p.what, ev, lb, p.x, mid, r)
		}
	}
	return lb
}

// ballProbe is a point of a ball that the bounds over it are checked at.
type ballProbe struct {
	what string
	x    linalg.Vector
}

// ballProbes returns the ball's midpoint, 2·dim axis points and 8 drawn
// directions on its sphere, the sphere point nearest each center (or the
// center itself, inside the ball), and 8 interior samples. Every sphere
// point is moved toward mid an ulp per axis at a time until it is inside
// the ball in exact arithmetic, so it is as far out as floating point
// allows.
func ballProbes(rng *rand.Rand, mid linalg.Vector, r float64, centers []linalg.Vector) []ballProbe {
	dim := len(mid)
	probes := []ballProbe{{"midpoint", mid}}
	for a := 0; a < 2*dim; a++ {
		dir := make(linalg.Vector, dim)
		dir[a/2] = float64(1 - 2*(a%2))
		probes = append(probes, ballProbe{"axis point", towardBall(mid, dir, r, r)})
	}
	for range 8 {
		dir := randVec(rng, dim, 1)
		probes = append(probes, ballProbe{"sphere point", towardBall(mid, dir, r/dir.Norm(), r)})
	}
	for _, c := range centers {
		dir := c.Sub(mid)
		if d := dir.Norm(); d > r {
			probes = append(probes, ballProbe{"sphere point nearest a center", towardBall(mid, dir, r/d, r)})
		} else {
			probes = append(probes, ballProbe{"center inside the ball", c})
		}
	}
	for range 8 {
		dir := randVec(rng, dim, 1)
		probes = append(probes, ballProbe{"interior sample", towardBall(mid, dir, r*rng.Float64()/dir.Norm(), r)})
	}
	return probes
}

// towardBall returns mid + scale·dir, moved toward mid an ulp per axis
// at a time until it is within r of mid in exact arithmetic.
func towardBall(mid, dir linalg.Vector, scale, r float64) linalg.Vector {
	x := make(linalg.Vector, len(mid))
	for i := range x {
		x[i] = mid[i] + scale*dir[i]
	}
	for !insideBall(x, mid, r) {
		for i := range x {
			x[i] = math.Nextafter(x[i], mid[i])
		}
	}
	return x
}

// insideBall reports whether ‖x − mid‖ <= r in exact arithmetic: in
// float64 when its rounding cannot change the answer, otherwise in
// big.Float, wide enough that every difference and square is exact.
func insideBall(x, mid linalg.Vector, r float64) bool {
	var q float64
	span, dlo, dhi := 0, math.MaxInt, math.MinInt
	for i := range x {
		d := x[i] - mid[i]
		q += d * d
		_, ex := math.Frexp(x[i])
		_, em := math.Frexp(mid[i])
		span = max(span, ex-em, em-ex)
		if d != 0 {
			_, ed := math.Frexp(d)
			dlo, dhi = min(dlo, ed), max(dhi, ed)
		}
	}
	if rr := r * r; rr > 0x1p-900 && !math.IsInf(rr, 1) && !math.IsInf(q, 1) {
		err := float64(len(x)+4) * 0x1p-52
		if q*(1+err) < rr*(1-err) {
			return true
		}
		if q*(1-err) > rr*(1+err) {
			return false
		}
	}
	// Exact: each difference needs span+54 bits, its square twice that,
	// and the sum the squares' exponent range on top.
	prec := uint(2*(span+60) + 64)
	if dlo <= dhi {
		prec += uint(2 * (dhi - dlo))
	}
	sum := new(big.Float).SetPrec(prec)
	d := new(big.Float).SetPrec(prec)
	for i := range x {
		d.Sub(new(big.Float).SetPrec(prec).SetFloat64(x[i]), new(big.Float).SetFloat64(mid[i]))
		sum.Add(sum, d.Mul(d, d))
	}
	rr := new(big.Float).SetPrec(prec).SetFloat64(r)
	return sum.Cmp(rr.Mul(rr, rr)) <= 0
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
