package distance

import (
	"math"

	"repro/internal/linalg"
)

// BallMetric is a Metric that can also bound its distance from below
// over a Euclidean ball: a swept search keeps one radius per storage
// block beside the block's box, and a block whose rows sit in a small
// ball around the box midpoint is often provably far where its box
// bound is loose (the full scheme's box bound is λ_min·MINDIST², which a
// ball bound scaled by λ_max beats whenever the block is much smaller
// than its distance from the query). Not every metric implements it;
// callers treat a metric without it as unbounded over balls.
type BallMetric interface {
	Metric
	// BallLowerBound returns a value <= min over ‖x − mid‖ <= r of
	// Eval(x), in floating point, or 0 when it cannot certify more (a
	// non-finite input, a ball reaching the centre).
	BallLowerBound(mid linalg.Vector, r float64) float64
}

// ballBound is the one formula behind every quadratic ball bound. For a
// form ‖A(x − c)‖² with ‖A‖₂ <= scale, the triangle inequality gives
// ‖A(x − c)‖ >= ‖A(mid − c)‖ − scale·r over the ball; a is the computed
// ‖A(mid − c)‖ and dist the computed ‖mid − c‖. The row kernels compute
// ‖A(x − c)‖ with an error of at most a few (dim+1)·√dim ulps of
// scale·‖x − c‖ <= scale·(dist + r), so the bound gives up
// ballSlack(dim) of that, and as much again of its square, and stays
// under what the kernel returns for every x in the ball. Below 2⁻⁹⁰⁰,
// where the kernels' products underflow and their error stops being
// relative, it returns 0, and so it does for any non-finite input or
// result.
func ballBound(a, dist, scale, r float64, dim int) float64 {
	slack := ballSlack(dim)
	g := a - scale*r - slack*scale*(dist+r)
	if !(g > 0) || math.IsInf(g, 1) || math.IsInf(scale*(dist+r), 1) {
		return 0 // NaN, overflow, or a ball that reaches the centre
	}
	b := g * g * (1 - slack)
	if b < 0x1p-900 || math.IsInf(b, 1) {
		return 0
	}
	return b
}

// ballSlack is ballBound's relative margin at dimension dim: (dim+2)²
// ulps, above the (dim+1)·√dim of a triangular row sum.
func ballSlack(dim int) float64 {
	d := float64(dim + 2)
	return d * d * 0x1p-52
}

// euclidNorm is ‖x − c‖, summed in order.
func euclidNorm(x, c linalg.Vector) float64 {
	x = x[:len(c)]
	var s float64
	for i, cv := range c {
		d := x[i] - cv
		s += d * d
	}
	return math.Sqrt(s)
}

// BallLowerBound implements BallMetric: (‖mid − c‖ − r)², floored at 0.
func (e *Euclidean) BallLowerBound(mid linalg.Vector, r float64) float64 {
	dist := euclidNorm(mid, e.Center)
	return ballBound(dist, dist, 1, r, len(e.Center))
}

// BallLowerBound implements BallMetric: (‖U(mid − c)‖ − √λ̄·r)² for the
// full scheme, λ̄ a certified ceiling of λ_max(W), and the same with
// √max w for the diagonal scheme; 0 for the non-positive-definite
// fallback, whose form has no such norm.
func (q *Quadratic) BallLowerBound(mid linalg.Vector, r float64) float64 {
	c := q.Center
	mid = mid[:len(c)]
	var s float64
	switch {
	case q.invDiag != nil:
		w := q.invDiag
		for i, cv := range c {
			d := mid[i] - cv
			s += d * d * w[i]
		}
	case q.whiten != nil:
		u := q.whiten.Data
		off := 0
		for j := range c {
			cd, md := c[j:], mid[j:]
			ur := u[off : off+len(cd)]
			var rj float64
			for k, cv := range cd {
				rj += ur[k] * (md[k] - cv)
			}
			s += rj * rj
			off += len(cd)
		}
	default:
		return 0
	}
	return ballBound(math.Sqrt(s), euclidNorm(mid, c), q.ballScale, r, len(c))
}

// BallLowerBound substitutes per-part ball bounds into Eq. 5, as
// LowerBound does box bounds: the aggregate is monotone increasing in
// every part, in floating point too, since both run the same operations
// in the same order.
func (d *Disjunctive) BallLowerBound(mid linalg.Vector, r float64) float64 {
	var denom float64
	for i, p := range d.Parts {
		di := p.BallLowerBound(mid, r)
		if di < epsilonDist {
			di = epsilonDist
		}
		denom += d.Weights[i] / di
	}
	return d.total / denom
}

// BallLowerBound substitutes part ball bounds into the α-mean; a part
// that is not a BallMetric contributes 0, which is a valid bound.
func (a *Aggregate) BallLowerBound(mid linalg.Vector, r float64) float64 {
	return a.combine(func(m Metric) float64 {
		if bm, ok := m.(BallMetric); ok {
			return bm.BallLowerBound(mid, r)
		}
		return 0
	})
}
