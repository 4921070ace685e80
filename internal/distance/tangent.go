package distance

import (
	"math"

	"repro/internal/linalg"
)

// TangentMetric is a Metric that certifies rows of a ball past a bound
// from one anchor at the ball's midpoint. A quadratic form is convex, so
// over the ball ‖x − mid‖ <= r it lies above its tangent plane at mid:
// f(x) >= f(mid) + 2gᵀ(x − mid) with g = W(mid − c). Anchoring costs two
// packed triangular products per part; after that a row costs one
// dim-term dot product per part, where the full-scheme kernel pays about
// dim²/2 multiply-adds before it can abandon one. So only full-scheme
// parts have planes, and Eq. 5 over them: the Euclidean and diagonal
// kernels, and the non-positive-definite fallback, cost no more than the
// test would.
type TangentMetric interface {
	BallMetric
	// Anchor sets t to the metric's planes at mid for rows within r of
	// mid, and reports whether it could: not for a part without a plane,
	// a non-finite ball, or one so small or so far out that the kernels'
	// rounding stops being relative.
	Anchor(t *Tangent, mid linalg.Vector, r float64) bool
}

// tangentSlack·ballSlack(dim)·(S² + ‖grad‖·(‖mid‖ + r)) is what a plane
// gives up, S = √λ̄·(‖mid − c‖ + r) being the most the whitened norm
// ‖U(x − c)‖ reaches over the ball. The row kernel's value at x and the
// anchor's f(mid) are each within about 3·ballSlack·S² of the exact form
// (ballBound's error model, squared); the computed gradient is within
// 2·ballSlack·√λ̄·S of W(mid − c), which moves the plane by at most
// 4·ballSlack·S² over the ball; the two dot products, gradᵀx and
// gradᵀmid, are within ballSlack·‖grad‖ times ‖x‖ <= ‖mid‖ + r and ‖mid‖;
// and the few additions on top round within an ulp of the terms. So a
// plane lowered by 32 times that stays under the row kernel's value at
// every row of the ball, in floating point, on any summation order.
const tangentSlack = 32

// Tangent is one anchor of a TangentMetric: per part a plane in the
// form base + gradᵀx, and, for Eq. 5, the weights that aggregate the
// parts. The zero value is ready for Anchor, which reuses its buffers.
type Tangent struct {
	planes  []plane
	weights []float64 // Eq. 5's m_i, nil for a lone quadratic form
	total   float64   // Σ m_i
}

// plane is one part's tangent plane at mid, lowered by the slack: its
// value at x is base + gradᵀx, and low is its least value over the ball,
// or the part's ball bound where that is larger (it comes with the same
// product U(mid − c)).
type plane struct {
	grad      []float64 // 2·W(mid − c)
	base, low float64
}

// reset sizes t for parts planes, keeping their buffers.
func (t *Tangent) reset(parts int) {
	if cap(t.planes) < parts {
		t.planes = append(t.planes[:cap(t.planes)], make([]plane, parts-cap(t.planes))...)
	}
	t.planes = t.planes[:parts]
}

// Anchor implements TangentMetric for the full scheme.
func (q *Quadratic) Anchor(t *Tangent, mid linalg.Vector, r float64) bool {
	t.reset(1)
	t.weights, t.total = nil, 0
	return q.plane(&t.planes[0], mid, r)
}

// Anchor implements TangentMetric for Eq. 5 when every part is of the
// full scheme: per-part planes go through Eq. 5 as LowerBound's box
// bounds do, floored at epsilonDist, and the aggregate is monotone
// increasing in every part in floating point too.
func (d *Disjunctive) Anchor(t *Tangent, mid linalg.Vector, r float64) bool {
	t.reset(len(d.Parts))
	t.weights, t.total = d.Weights, d.total
	for i, p := range d.Parts {
		if !p.plane(&t.planes[i], mid, r) {
			return false
		}
	}
	return true
}

// plane sets p to q's tangent plane at mid for the ball of radius r:
// v = U(mid − c) and f = ‖v‖², g = Uᵀv accumulated row by row of the
// packed factor, then the slack (tangentSlack), which holds whatever
// order the sums take.
func (q *Quadratic) plane(p *plane, mid linalg.Vector, r float64) bool {
	if q.whiten == nil {
		return false
	}
	c := q.Center
	n := len(c)
	mid = mid[:n]
	dist := euclidNorm(mid, c)
	s := q.ballScale * (dist + r)
	s2 := s * s
	if !(s2 >= 0x1p-900 && s2 <= 0x1p900) {
		return false // NaN, overflow, or rounding that is no longer relative
	}
	if cap(p.grad) < n {
		p.grad = make([]float64, n)
	}
	p.grad = p.grad[:n]
	g := p.grad
	clear(g)
	u := q.whiten.Data
	var f float64
	off := 0
	for j := range n {
		ur := u[off : off+n-j]
		vj := diffDot(ur, mid[j:], c[j:])
		f += vj * vj
		gj := g[j:]
		for k, uv := range ur {
			gj[k] += uv * vj
		}
		off += n - j
	}
	var gg, gm, mm float64
	for k := range g {
		g[k] *= 2
		gg += g[k] * g[k]
		gm += g[k] * mid[k]
		mm += mid[k] * mid[k]
	}
	sigma := ballSlack(n)
	norm := math.Sqrt(gg)
	slack := tangentSlack * sigma * (s2 + norm*(math.Sqrt(mm)+r))
	p.base = f - gm - slack
	p.low = max(f-norm*r*(1+sigma)-slack, ballBound(math.Sqrt(f), dist, q.ballScale, r, n))
	return !math.IsInf(slack, 1) && !math.IsNaN(p.base) && !math.IsNaN(p.low)
}

// Min returns a value under what the metric's kernel computes for every
// row in the ball: Eq. 5 (or the lone form) over the planes' lows.
func (t *Tangent) Min() float64 {
	if t.weights == nil {
		return t.planes[0].low
	}
	var denom float64
	for i := range t.planes {
		di := t.planes[i].low
		if di < epsilonDist {
			di = epsilonDist
		}
		denom += t.weights[i] / di
	}
	return t.total / denom
}

// Keep appends to ids first+k for every row k of flat (rows in the
// ball, row-major) whose planes do not certify it past bound, and
// returns ids. A row it leaves out has a kernel value above bound; a
// plane value that is NaN certifies nothing.
func (t *Tangent) Keep(flat []float64, first int, bound float64, ids []int) []int {
	n := len(t.planes[0].grad)
	if t.weights == nil {
		p := &t.planes[0]
		for k := 0; (k+1)*n <= len(flat); k++ {
			if !(p.base+planeDot(p.grad, flat[k*n:(k+1)*n]) > bound) {
				ids = append(ids, first+k)
			}
		}
		return ids
	}
	for k := 0; (k+1)*n <= len(flat); k++ {
		row := flat[k*n : (k+1)*n]
		var denom float64
		for i := range t.planes {
			p := &t.planes[i]
			di := p.base + planeDot(p.grad, row)
			if di < epsilonDist {
				di = epsilonDist
			}
			denom += t.weights[i] / di
		}
		if !(t.total/denom > bound) {
			ids = append(ids, first+k)
		}
	}
	return ids
}

// diffDot is uᵀ(x − c) over four running sums, like planeDot.
func diffDot(u, x, c []float64) float64 {
	x, c = x[:len(u)], c[:len(u)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(u); i += 4 {
		us, xs, cs := u[i:i+4:i+4], x[i:i+4:i+4], c[i:i+4:i+4]
		s0 += us[0] * (xs[0] - cs[0])
		s1 += us[1] * (xs[1] - cs[1])
		s2 += us[2] * (xs[2] - cs[2])
		s3 += us[3] * (xs[3] - cs[3])
	}
	for ; i < len(u); i++ {
		s0 += u[i] * (x[i] - c[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// planeDot is gradᵀrow over four running sums, so consecutive terms do
// not wait on one another's additions; the slack holds for any order.
func planeDot(grad, row []float64) float64 {
	row = row[:len(grad)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(grad); i += 4 {
		g, x := grad[i:i+4:i+4], row[i:i+4:i+4]
		s0 += g[0] * x[0]
		s1 += g[1] * x[1]
		s2 += g[2] * x[2]
		s3 += g[3] * x[3]
	}
	for ; i < len(grad); i++ {
		s0 += grad[i] * row[i]
	}
	return (s0 + s1) + (s2 + s3)
}
