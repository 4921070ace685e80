// Package distance implements the query distance functions of the paper
// and its baselines: the per-cluster quadratic form (Eq. 1), the weighted
// aggregate disjunctive distance (Eq. 5) that Qcluster searches with, the
// general aggregate form (Eq. 4), FALCON's fuzzy-OR aggregate and MARS'
// weighted Euclidean distance. Every distance also provides a lower bound
// over an axis-aligned rectangle so the k-NN index can prune subtrees
// (the MINDIST of best-first search).
package distance

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// Metric is a query-to-point distance with a rectangle lower bound for
// index pruning. Lower bounds must never exceed the true minimum of Eval
// over the rectangle; tighter is faster, looser is still correct.
type Metric interface {
	// Eval returns the (squared) distance from the query to x.
	Eval(x linalg.Vector) float64
	// LowerBound returns a value <= min over all x in [lo, hi] of Eval(x).
	LowerBound(lo, hi linalg.Vector) float64
	// Dim returns the feature dimensionality.
	Dim() int
}

// epsilonDist guards divisions in the fuzzy-OR aggregates: a point that
// coincides with a representative has distance 0 and must dominate.
const epsilonDist = 1e-12

// Euclidean is the plain squared Euclidean distance to a single point.
type Euclidean struct {
	Center linalg.Vector
}

// Eval returns ||x - center||². It shares the batch kernel's row
// evaluator (with abandonment disabled), so scalar and batched results
// are bit-identical by construction.
func (e *Euclidean) Eval(x linalg.Vector) float64 {
	return e.evalRowBound(x, math.Inf(1))
}

// Dim returns the dimensionality.
func (e *Euclidean) Dim() int { return e.Center.Dim() }

// LowerBound returns the exact squared distance from the rectangle to the
// center (MINDIST).
func (e *Euclidean) LowerBound(lo, hi linalg.Vector) float64 {
	return boxDist2(e.Center, lo, hi)
}

// boxDist2 is the squared distance from c to the box [lo, hi]: Σ d_i²
// with d_i = max(lo_i − c_i, c_i − hi_i, 0), which compiles to no
// branch. It adds its terms in the Euclidean row kernel's order —
// eight-term chunks summed as a balanced tree, then the tail one by one —
// so for every x in the box each term, and hence the sum, is at most
// what evalRowBound computes for x in floating point, not only in real
// arithmetic: rounding is monotone and |x_i − c_i| ≥ d_i. A swept search
// skips a whole storage block on this bound without evaluating its rows,
// so a bound an ulp over a row's distance would lose the row.
func boxDist2(c, lo, hi linalg.Vector) float64 {
	lo, hi = lo[:len(c)], hi[:len(c)] // equal lengths let the compiler drop the checks
	var s float64
	i := 0
	for ; i+abandonChunk <= len(c); i += abandonChunk {
		cs := c[i : i+abandonChunk : i+abandonChunk]
		ls := lo[i : i+abandonChunk : i+abandonChunk]
		hs := hi[i : i+abandonChunk : i+abandonChunk]
		d0 := max(ls[0]-cs[0], cs[0]-hs[0], 0)
		d1 := max(ls[1]-cs[1], cs[1]-hs[1], 0)
		d2 := max(ls[2]-cs[2], cs[2]-hs[2], 0)
		d3 := max(ls[3]-cs[3], cs[3]-hs[3], 0)
		d4 := max(ls[4]-cs[4], cs[4]-hs[4], 0)
		d5 := max(ls[5]-cs[5], cs[5]-hs[5], 0)
		d6 := max(ls[6]-cs[6], cs[6]-hs[6], 0)
		d7 := max(ls[7]-cs[7], cs[7]-hs[7], 0)
		s += ((d0*d0 + d1*d1) + (d2*d2 + d3*d3)) + ((d4*d4 + d5*d5) + (d6*d6 + d7*d7))
	}
	for ; i < len(c); i++ {
		d := max(lo[i]-c[i], c[i]-hi[i], 0)
		s += d * d
	}
	return s
}

// boxDist2W is boxDist2 with axis i weighted by w_i, in the diagonal
// quadratic row kernel's order: Σ d_i²·w_i.
func boxDist2W(c, w, lo, hi linalg.Vector) float64 {
	w, lo, hi = w[:len(c)], lo[:len(c)], hi[:len(c)]
	var s float64
	i := 0
	for ; i+abandonChunk <= len(c); i += abandonChunk {
		cs := c[i : i+abandonChunk : i+abandonChunk]
		ws := w[i : i+abandonChunk : i+abandonChunk]
		ls := lo[i : i+abandonChunk : i+abandonChunk]
		hs := hi[i : i+abandonChunk : i+abandonChunk]
		d0 := max(ls[0]-cs[0], cs[0]-hs[0], 0)
		d1 := max(ls[1]-cs[1], cs[1]-hs[1], 0)
		d2 := max(ls[2]-cs[2], cs[2]-hs[2], 0)
		d3 := max(ls[3]-cs[3], cs[3]-hs[3], 0)
		d4 := max(ls[4]-cs[4], cs[4]-hs[4], 0)
		d5 := max(ls[5]-cs[5], cs[5]-hs[5], 0)
		d6 := max(ls[6]-cs[6], cs[6]-hs[6], 0)
		d7 := max(ls[7]-cs[7], cs[7]-hs[7], 0)
		s += ((d0*d0*ws[0] + d1*d1*ws[1]) + (d2*d2*ws[2] + d3*d3*ws[3])) +
			((d4*d4*ws[4] + d5*d5*ws[5]) + (d6*d6*ws[6] + d7*d7*ws[7]))
	}
	for ; i < len(c); i++ {
		d := max(lo[i]-c[i], c[i]-hi[i], 0)
		s += d * d * w[i]
	}
	return s
}

// Quadratic is the per-cluster generalized distance of Eq. 1:
// d²(x) = (x - center)' W (x - center) with W = S⁻¹. The diagonal scheme
// stores only the inverse diagonal (fast path). The full scheme is
// Cholesky-whitened: with W = Uᵀ U the form becomes ||U(x-c)||² — a
// triangular mat-vec over a packed factor whose partial sums are
// monotone non-decreasing, which is what lets the batch kernels abandon
// a candidate the moment the accumulation exceeds a pruning bound. In
// front of them sits the point filter (filter.go): floor holds the
// diagonal scheme's weights scaled by μ, a floor of λ_min(D^-½WD^-½)
// with D = diag(W) that a shifted Cholesky factorization certifies, so
// the O(d) form Σ floor_k(x_k-c_k)² never exceeds the O(d²) one. The
// dense inverse is kept only for the rare non-positive-definite input,
// where the factorization fails and evaluation falls back to the
// general (non-abandonable, unfiltered) quadratic form.
type Quadratic struct {
	Center  linalg.Vector
	invDiag linalg.Vector    // diagonal scheme
	whiten  *linalg.UpperTri // full scheme: packed U with W = UᵀU
	floor   linalg.Vector    // full scheme: μ·W_kk, nil when μ is too small to arm
	invFull *linalg.Matrix   // full scheme fallback when W is not PD
	lambda  float64          // certified floor of λ_min(W) for rectangle bounds
	// ballScale is √λ̄ for ball bounds, λ̄ a certified ceiling of λ_max(W):
	// the largest inverse variance for the diagonal scheme.
	ballScale float64
}

// NewQuadraticDiag builds the diagonal-scheme quadratic distance. invDiag
// holds 1/σ²_j per dimension (MARS-style re-weighting).
func NewQuadraticDiag(center, invDiag linalg.Vector) *Quadratic {
	if center.Dim() != invDiag.Dim() {
		panic("distance: dimension mismatch")
	}
	var wmax float64
	for _, w := range invDiag {
		wmax = max(wmax, w)
	}
	return &Quadratic{Center: center.Clone(), invDiag: invDiag.Clone(), ballScale: ceilSqrt(wmax)}
}

// ceilSqrt is √x grown by an ulp-scale factor, so that it is not under
// the real square root of x.
func ceilSqrt(x float64) float64 { return math.Sqrt(x) * (1 + 0x1p-50) }

// NewQuadraticFull builds the full inverse-matrix quadratic distance
// (MindReader-style). The weight matrix is Cholesky-factored once here:
// the factor both whitens evaluation (||U(x-c)||², half the flops of
// the dense form with early-abandonment support) and certifies the
// λ_min floor for rectangle lower bounds without the per-rebuild Jacobi
// eigensolve this constructor used to pay; a certified λ_max ceiling
// scales the ball lower bound the same way. A second certified floor, of
// the unit-diagonal scaling of W, arms the point filter's diagonal stage
// (diagonalFloor). Non-positive-definite input (possible for degraded
// regularized inverses) keeps the old dense path and eigensolve.
func NewQuadraticFull(center linalg.Vector, inv *linalg.Matrix) *Quadratic {
	if center.Dim() != inv.Rows || !inv.IsSquare() {
		panic("distance: dimension mismatch")
	}
	q := &Quadratic{Center: center.Clone()}
	if u, err := inv.CholeskyUpper(); err == nil {
		q.whiten = u
		q.floor = diagonalFloor(inv)
		q.lambda = linalg.SymLambdaMinFloor(inv)
		q.ballScale = ceilSqrt(linalg.SymLambdaMaxCeil(inv))
		return q
	}
	vals, _ := linalg.EigenSym(inv)
	lambda := vals[len(vals)-1]
	if lambda < 0 {
		lambda = 0
	}
	q.invFull = inv.Clone()
	q.lambda = lambda
	return q
}

// Dim returns the dimensionality.
func (q *Quadratic) Dim() int { return q.Center.Dim() }

// Eval returns (x-c)' W (x-c). It keeps no per-call state, so one
// metric may be evaluated from many goroutines at once — the sweep's
// workers rely on this. Both schemes share the batch kernels' row
// evaluators (with abandonment disabled, and never the point filter), so
// scalar and batched results are bit-identical by construction.
func (q *Quadratic) Eval(x linalg.Vector) float64 {
	return q.evalRowBound(x, math.Inf(1))
}

// LowerBound returns a lower bound of Eval over [lo, hi]. For the
// diagonal scheme the bound is exact (per-dimension clamping); for the
// full scheme it is λ_min(W) times the squared Euclidean MINDIST, a valid
// bound since (x-c)'W(x-c) >= λ_min ||x-c||².
func (q *Quadratic) LowerBound(lo, hi linalg.Vector) float64 {
	if q.invDiag != nil {
		return boxDist2W(q.Center, q.invDiag, lo, hi)
	}
	return q.lambda * boxDist2(q.Center, lo, hi)
}

// Disjunctive is the paper's aggregate distance (Eq. 5):
// d²_disj(Q, x) = Σm_i / Σ_i [ m_i / d²_i(x) ],
// a weighted harmonic-style fuzzy OR over per-cluster quadratic forms:
// the closest cluster dominates, so contours around disjoint clusters
// stay disjoint (Example 3 / Fig. 5).
type Disjunctive struct {
	Parts   []*Quadratic
	Weights []float64 // m_i, the per-cluster relevance mass
	total   float64   // Σ m_i
}

// NewDisjunctive builds the aggregate distance over per-cluster parts.
func NewDisjunctive(parts []*Quadratic, weights []float64) *Disjunctive {
	if len(parts) == 0 || len(parts) != len(weights) {
		panic("distance: parts/weights mismatch")
	}
	var total float64
	for _, w := range weights {
		if w <= 0 {
			panic("distance: non-positive cluster weight")
		}
		total += w
	}
	return &Disjunctive{Parts: parts, Weights: weights, total: total}
}

// BuildInfo reports degradations absorbed while constructing a metric —
// the observable trace of the graceful-degradation paths (regularized
// inverses, floored variances) that keep a singular covariance from
// crashing retrieval.
type BuildInfo struct {
	// Clusters is the number of query clusters the metric aggregates.
	Clusters int
	// DegradedClusters counts clusters whose covariance was singular and
	// whose quadratic form therefore came from a fallback: a floored
	// variance (either scheme) or the ridge-regularized full inverse.
	DegradedClusters int
	// Scheme is the covariance scheme the metric was constructed under.
	Scheme cluster.Scheme
	// Tau is the shrinkage prior strength the construction used: p + 1
	// in a session, 0 for raw sample covariances (core's RawCovariances
	// ablation, which switches off the model's one correction to the
	// paper).
	Tau float64
}

// Degraded reports whether any cluster needed a covariance fallback.
func (b BuildInfo) Degraded() bool { return b.DegradedClusters > 0 }

// FromClustersShrunkInfo builds Eq. 5 for a set of query clusters under
// a scheme, with m_i = cluster weights (sums of relevance scores). Each
// cluster's covariance is shrunk toward the pooled covariance of the
// whole set with prior strength tau (see cluster.ShrunkCov), so the
// per-cluster quadratic forms share one scale — required for the fuzzy-OR
// aggregate to rank across clusters sensibly when some clusters are
// young. A session uses tau = dim+1; tau = 0 uses each cluster's raw
// sample covariance (the paper's Eq. 5 read literally, an ablation). The
// BuildInfo describes which graceful-degradation paths the construction
// took.
func FromClustersShrunkInfo(cs []*cluster.Cluster, scheme cluster.Scheme, tau float64) (*Disjunctive, BuildInfo) {
	if len(cs) == 0 {
		panic("distance: no clusters")
	}
	info := BuildInfo{Clusters: len(cs), Scheme: scheme, Tau: tau}
	pooled := cluster.PooledAll(cs)
	parts := make([]*Quadratic, len(cs))
	ws := make([]float64, len(cs))
	for i, c := range cs {
		cov := cluster.ShrunkCov(c, pooled, tau)
		var degraded bool
		if scheme == cluster.Diagonal {
			var diag linalg.Vector
			diag, degraded = cluster.InverseDiagOfInfo(cov)
			parts[i] = NewQuadraticDiag(c.Mean, diag)
		} else {
			var inv *linalg.Matrix
			inv, degraded = cluster.InverseOfInfo(cov, cluster.FullInverse)
			parts[i] = NewQuadraticFull(c.Mean, inv)
		}
		if degraded {
			info.DegradedClusters++
		}
		ws[i] = c.Weight
	}
	return NewDisjunctive(parts, ws), info
}

// Dim returns the dimensionality.
func (d *Disjunctive) Dim() int { return d.Parts[0].Dim() }

// Eval computes Eq. 5. A point coinciding with any representative yields
// distance ~0.
func (d *Disjunctive) Eval(x linalg.Vector) float64 {
	var denom float64
	for i, p := range d.Parts {
		di := p.Eval(x)
		if di < epsilonDist {
			di = epsilonDist
		}
		denom += d.Weights[i] / di
	}
	return d.total / denom
}

// LowerBound substitutes per-part rectangle lower bounds into Eq. 5.
// Because the aggregate is monotone increasing in every d_i, replacing
// each d_i by a value <= its minimum over the rectangle yields a valid
// lower bound of the aggregate over the rectangle.
func (d *Disjunctive) LowerBound(lo, hi linalg.Vector) float64 {
	var denom float64
	for i, p := range d.Parts {
		di := p.LowerBound(lo, hi)
		if di < epsilonDist {
			di = epsilonDist
		}
		denom += d.Weights[i] / di
	}
	return d.total / denom
}

// Aggregate is the general aggregate dissimilarity of Eq. 4:
// d_agg(Q,x)^α-mean = ( (1/g) Σ d_i(x)^α )^(1/α). Negative α mimics a
// fuzzy OR (the smallest distance dominates); FALCON uses this form over
// all relevant points. Parts may be any Metric.
type Aggregate struct {
	Parts []Metric
	Alpha float64
}

// NewAggregate builds the α-mean aggregate. Alpha must be nonzero.
func NewAggregate(parts []Metric, alpha float64) *Aggregate {
	if len(parts) == 0 {
		panic("distance: no parts")
	}
	if alpha == 0 {
		panic("distance: alpha must be nonzero")
	}
	return &Aggregate{Parts: parts, Alpha: alpha}
}

// Dim returns the dimensionality.
func (a *Aggregate) Dim() int { return a.Parts[0].Dim() }

// Eval computes the α-mean of the part distances.
func (a *Aggregate) Eval(x linalg.Vector) float64 {
	return a.combine(func(m Metric) float64 { return m.Eval(x) })
}

// LowerBound substitutes part lower bounds; the α-mean is monotone
// increasing in each part distance for any α ≠ 0, so this is valid.
func (a *Aggregate) LowerBound(lo, hi linalg.Vector) float64 {
	return a.combine(func(m Metric) float64 { return m.LowerBound(lo, hi) })
}

func (a *Aggregate) combine(f func(Metric) float64) float64 {
	// Specialized integer exponents: α = ±2 (the fuzzy-OR configuration
	// FALCON runs with, and its AND mirror) replace the two math.Pow
	// calls of the general path with multiplications and a square root.
	// math.Pow computes x² by mantissa squaring and x^±0.5 via Sqrt, so
	// the fast path rounds identically to the general one on every
	// normal input (asserted in TestAggregateIntAlphaMatchesPow).
	switch a.Alpha {
	case 2:
		var s float64
		for _, p := range a.Parts {
			d := f(p)
			if d < epsilonDist {
				d = epsilonDist
			}
			s += d * d
		}
		return math.Sqrt(s / float64(len(a.Parts)))
	case -2:
		var s float64
		for _, p := range a.Parts {
			d := f(p)
			if d < epsilonDist {
				d = epsilonDist
			}
			s += 1 / (d * d)
		}
		return 1 / math.Sqrt(s/float64(len(a.Parts)))
	}
	var s float64
	for _, p := range a.Parts {
		d := f(p)
		if d < epsilonDist {
			d = epsilonDist
		}
		s += math.Pow(d, a.Alpha)
	}
	s /= float64(len(a.Parts))
	return math.Pow(s, 1/a.Alpha)
}

// Centers extracts a metric's query representatives: the single center
// of a Euclidean or quadratic form, and every cluster center of the
// paper's disjunctive / aggregate multipoint metrics; nil for any other
// metric. The tree's nearest-first sweep plan uses it instead of
// type-switching itself: a block whose ball holds a center gets no ball
// bound, since that part's bound there is 0.
func Centers(m Metric) []linalg.Vector {
	switch t := m.(type) {
	case *Euclidean:
		return []linalg.Vector{t.Center}
	case *Quadratic:
		return []linalg.Vector{t.Center}
	case *Disjunctive:
		out := make([]linalg.Vector, 0, len(t.Parts))
		for _, p := range t.Parts {
			out = append(out, p.Center)
		}
		return out
	case *Aggregate:
		var out []linalg.Vector
		for _, p := range t.Parts {
			out = append(out, Centers(p)...)
		}
		return out
	}
	return nil
}
