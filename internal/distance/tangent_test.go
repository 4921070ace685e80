package distance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// tangentCounts tallies what checkTangents checked: metrics that
// anchored, rows the planes rejected, and rejections at a bound within
// an ulp of the row's kernel value, where a plane without its slack
// rejects rows it must keep.
type tangentCounts struct{ anchored, rejected, tight int }

// tangentMetrics draws the forms the tangent planes are for at dimension
// dim, centred around mid: a full-scheme form per conditioning family of
// randWeight (well-conditioned, axis scales 1…1e4, correlated,
// near-singular, diagonal), the floored diagonal inverse and the
// ridge-regularised full inverse of a flat cluster's covariance, Eq. 5 as
// a session builds it over two flat clusters, and Eq. 5 over 1–5 of the
// forms with unequal weights.
func tangentMetrics(rng *rand.Rand, dim int, mid linalg.Vector) map[string]TangentMetric {
	ms := map[string]TangentMetric{}
	var parts []*Quadratic
	for _, family := range spdFamilies {
		w, offset := randWeight(rng, dim, family)
		q := NewQuadraticFull(mid.Add(offset().Scale(2*rng.Float64())), w)
		ms["full-"+family] = q
		parts = append(parts, q)
	}
	var cs []*cluster.Cluster
	for i := range 2 {
		c := flatCluster(rng, dim)
		floored, _ := cluster.InverseDiagOfInfo(c.SampleCov())
		regularised, _ := cluster.InverseOfInfo(c.SampleCov(), cluster.FullInverse)
		qf := NewQuadraticFull(c.Mean, linalg.Diag(floored))
		qr := NewQuadraticFull(c.Mean, regularised)
		ms[fmt.Sprintf("full-floored-%d", i)] = qf
		ms[fmt.Sprintf("full-regularised-%d", i)] = qr
		parts = append(parts, qf, qr)
		cs = append(cs, c)
	}
	ms["eq5-shrunk"], _ = FromClustersShrunkInfo(cs, cluster.FullInverse, float64(dim+1))
	for n := 1; n <= 5; n++ {
		ps := make([]*Quadratic, n)
		ws := make([]float64, n)
		for i := range ps {
			ps[i] = parts[rng.Intn(len(parts))]
			ws[i] = 0.1 + 5*rng.Float64()
		}
		ms[fmt.Sprintf("eq5-full-%d", n)] = NewDisjunctive(ps, ws)
	}
	return ms
}

// checkTangents runs checkTangent over every TangentMetric of ms
// (lowerBoundMetrics), over tangentMetrics around the ball, and over
// tangentMetrics around the ball moved 10⁶ out from the origin, where a
// plane's value gradᵀx is a difference of large terms; and it fails if a
// metric with a part of the diagonal scheme anchors: its kernel is as
// cheap as the test.
func checkTangents(t *testing.T, label string, ms map[string]Metric, mid linalg.Vector, r float64, rng *rand.Rand, c *tangentCounts) {
	t.Helper()
	if _, ok := ms["euclidean"].(TangentMetric); ok {
		t.Fatal("Euclidean implements TangentMetric")
	}
	all := tangentMetrics(rng, len(mid), mid)
	for name, m := range ms {
		if tm, ok := m.(TangentMetric); ok {
			all["bounds-"+name] = tm
		}
	}
	far := mid.Add(randVec(rng, len(mid), 1e6))
	for name, m := range tangentMetrics(rng, len(mid), far) {
		whitened := true
		for _, q := range quadParts(m) {
			whitened = whitened && q.whiten != nil
		}
		if !checkTangent(t, label+" far "+name, m, far, r, rng, c) && whitened && r > 0 {
			t.Fatalf("%s far %s: no anchor", label, name)
		}
	}
	for name, m := range all {
		anchored := checkTangent(t, label+" "+name, m, mid, r, rng, c)
		diagonal := false
		for _, q := range quadParts(m) {
			diagonal = diagonal || q.invDiag != nil
		}
		if anchored && diagonal {
			t.Fatalf("%s %s: a metric with a diagonal-scheme part anchored", label, name)
		}
	}
}

// quadParts returns the quadratic forms m is made of.
func quadParts(m Metric) []*Quadratic {
	switch m := m.(type) {
	case *Quadratic:
		return []*Quadratic{m}
	case *Disjunctive:
		return m.Parts
	}
	return nil
}

// checkTangent anchors m at (mid, r) and, if it anchors, fails unless at
// every probe of the ball (ballProbes, and four rows a billionth of r off
// the midpoint, where a plane is within rounding of the form) the planes'
// Min is at most Eval, and Keep, at a bound of half the row's kernel
// value, an ulp under it, the value itself and an ulp over it, leaves
// out only a row whose Eval and EvalBatch exceed the bound. One Keep
// over all the probes at once, as a sweep makes over a block, must leave
// out only such rows too, and return the others' ids in order. It
// reports whether m anchored.
func checkTangent(t *testing.T, name string, m TangentMetric, mid linalg.Vector, r float64, rng *rand.Rand, c *tangentCounts) bool {
	t.Helper()
	var tan Tangent
	if !m.Anchor(&tan, mid, r) {
		return false
	}
	c.anchored++
	dim := len(mid)
	probes := ballProbes(rng, mid, r, Centers(m))
	for range 4 {
		dir := randVec(rng, dim, 1)
		probes = append(probes, ballProbe{"row by the midpoint", towardBall(mid, dir, 1e-9*r/dir.Norm(), r)})
	}
	low := tan.Min()
	bm := m.(BatchMetric)
	out := make([]float64, 1)
	evs := make([]float64, len(probes))
	flat := make([]float64, 0, len(probes)*dim)
	for i, p := range probes {
		ev := m.Eval(p.x)
		evs[i] = ev
		flat = append(flat, p.x...)
		if !(low <= ev) {
			t.Fatalf("%s: Eval at %s = %v < the planes' Min %v (x=%v mid=%v r=%v)", name, p.what, ev, low, p.x, mid, r)
		}
		for j, bound := range []float64{ev / 2, math.Nextafter(ev, math.Inf(-1)), ev, math.Nextafter(ev, math.Inf(1))} {
			switch kept := tan.Keep(p.x, 7, bound, nil); {
			case slices.Equal(kept, []int{7}):
				continue
			case len(kept) != 0:
				t.Fatalf("%s: Keep of one row with id 7 returned %v", name, kept)
			}
			c.rejected++
			if j > 0 {
				c.tight++
			}
			bm.EvalBatch(p.x, dim, bound, out)
			if !(ev > bound) || !(out[0] > bound) {
				t.Fatalf("%s: the planes rejected the %s at bound %v, but Eval = %v and EvalBatch = %v (x=%v mid=%v r=%v)",
					name, p.what, bound, ev, out[0], p.x, mid, r)
			}
		}
	}
	bound := evs[rng.Intn(len(evs))]
	kept := tan.Keep(flat, 100, bound, nil)
	next := 0
	for i, ev := range evs {
		if next < len(kept) && kept[next] == 100+i {
			next++
		} else if !(ev > bound) {
			t.Fatalf("%s: Keep over the block left out the %s at bound %v, Eval = %v", name, probes[i].what, bound, ev)
		}
	}
	if next != len(kept) {
		t.Fatalf("%s: Keep over the block returned ids %v, not in order within [100, %d)", name, kept, 100+len(evs))
	}
	return true
}
