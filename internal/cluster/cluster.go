// Package cluster implements the weighted cluster statistics at the heart
// of the Qcluster paper: relevance-score-weighted centroids and covariances
// (Definitions 1-2), the incremental merge formulas (Eq. 11-13), pooled
// covariances (Eq. 7 and 15), Hotelling's T² merge test (Definition 3,
// Eq. 16) and the hierarchical clustering used for the initial iteration
// (Sec. 4.1).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// Scheme selects how inverse covariance matrices are estimated, mirroring
// the paper's two alternatives (Sec. 3.2): the full inverse-matrix scheme
// of MindReader and the diagonal-matrix scheme of MARS, which avoids the
// small-sample singularity problem and is the paper's default.
type Scheme int

const (
	// Diagonal keeps only the diagonal of the covariance and inverts it
	// elementwise (MARS-style). The paper's experiments select this
	// scheme for its far lower CPU cost (Fig. 6) at comparable quality.
	Diagonal Scheme = iota
	// FullInverse inverts the complete covariance matrix
	// (MindReader-style), regularizing the diagonal when singular.
	FullInverse
)

// String implements fmt.Stringer for benchmark/experiment labels.
func (s Scheme) String() string {
	switch s {
	case Diagonal:
		return "diagonal"
	case FullInverse:
		return "inverse"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Point is a relevance-scored feature vector: one relevant image marked by
// the user, carrying its relevance score v_ik and database identity.
type Point struct {
	ID    int           // database image id (or -1 for synthetic points)
	Vec   linalg.Vector // feature vector x_ik
	Score float64       // relevance score v_ik > 0
}

// Cluster is one query cluster C_i. It maintains the weighted first and
// second moments incrementally so that classification, merging and the
// distance functions all share the same statistics, exactly as the paper
// prescribes ("the same statistical measures are used at both the
// classification stage and the cluster-merging stage").
//
// Internally the second moment is kept as the *scatter* matrix
// Σ_k v_ik (x_ik - x̄_i)(x_ik - x̄_i)'   (Definition 2),
// from which both the paper's pooled covariances (Eq. 7, Eq. 15) and the
// sample covariance needed by the merge formula (Eq. 13) follow by
// normalization.
type Cluster struct {
	Points  []Point        // member points (retained for leave-one-out quality, Sec. 4.5)
	Mean    linalg.Vector  // weighted centroid x̄_i (Definition 1)
	Scatter *linalg.Matrix // weighted scatter S_i (Definition 2, unnormalized)
	Weight  float64        // m_i = Σ_k v_ik
}

// New returns an empty cluster of the given dimensionality.
func New(dim int) *Cluster {
	return &Cluster{
		Mean:    linalg.NewVector(dim),
		Scatter: linalg.NewMatrix(dim, dim),
	}
}

// FromPoint returns a singleton cluster seeded with p, as used when a new
// relevant image falls outside every effective radius (Algorithm 2 line 6).
func FromPoint(p Point) *Cluster {
	c := New(p.Vec.Dim())
	c.Add(p)
	return c
}

// FromPoints builds a cluster over the given points.
func FromPoints(ps []Point) *Cluster {
	if len(ps) == 0 {
		panic("cluster: FromPoints with no points")
	}
	c := New(ps[0].Vec.Dim())
	for _, p := range ps {
		c.Add(p)
	}
	return c
}

// Dim returns the feature dimensionality.
func (c *Cluster) Dim() int { return len(c.Mean) }

// N returns the number of member points n_i.
func (c *Cluster) N() int { return len(c.Points) }

// Add incorporates point p, updating the weighted mean and scatter with
// the standard rank-1 (West/Welford-style) weighted update, so a cluster
// never needs re-summation over its points.
func (c *Cluster) Add(p Point) {
	if p.Score <= 0 {
		panic("cluster: point score must be positive")
	}
	if len(p.Vec) != c.Dim() {
		panic("cluster: dimension mismatch")
	}
	c.Points = append(c.Points, p)
	wOld := c.Weight
	c.Weight += p.Score
	// delta = x - mean_old
	delta := p.Vec.Sub(c.Mean)
	// mean_new = mean_old + (v/W_new) delta
	c.Mean.AddScaled(p.Score/c.Weight, delta)
	// scatter_new = scatter_old + v * (x - mean_old)(x - mean_new)'
	// which equals scatter_old + v*(W_old/W_new) delta delta'.
	if wOld > 0 {
		c.Scatter.AddScaledInPlace(p.Score*wOld/c.Weight, delta.Outer(delta))
	}
}

// SampleCov returns the sample covariance S_i = scatter/(m_i - 1), the
// normalization under which the paper's merge formula (Eq. 13) is exact.
// For clusters with weight <= 1 it returns the zero matrix.
func (c *Cluster) SampleCov() *linalg.Matrix {
	if c.Weight <= 1 {
		return linalg.NewMatrix(c.Dim(), c.Dim())
	}
	return c.Scatter.Scale(1 / (c.Weight - 1))
}

// MergeStats returns the statistics of the cluster formed by combining a
// and b using only their summaries — the paper's Eq. 11-13 — without
// touching member points. The returned cluster carries the concatenated
// point set so later leave-one-out checks still work.
func MergeStats(a, b *Cluster) *Cluster {
	if a.Dim() != b.Dim() {
		panic("cluster: merge dimension mismatch")
	}
	m := &Cluster{Weight: a.Weight + b.Weight} // Eq. 11
	// Eq. 12: weighted mean of means.
	m.Mean = a.Mean.Scale(a.Weight / m.Weight).Add(b.Mean.Scale(b.Weight / m.Weight))
	// Scatter form of Eq. 13: S_new = S_a + S_b +
	// (m_a m_b / m_new) (x̄_a - x̄_b)(x̄_a - x̄_b)'.
	d := a.Mean.Sub(b.Mean)
	m.Scatter = a.Scatter.Add(b.Scatter)
	m.Scatter.AddScaledInPlace(a.Weight*b.Weight/m.Weight, d.Outer(d))
	m.Points = make([]Point, 0, len(a.Points)+len(b.Points))
	m.Points = append(m.Points, a.Points...)
	m.Points = append(m.Points, b.Points...)
	return m
}

// InverseCov returns the S_i⁻¹ used by the per-cluster quadratic distance
// (Eq. 1) under the given scheme. The covariance normalization is the
// sample covariance; variances of degenerate dimensions are floored so the
// quadratic form stays finite (the regularization the paper cites from
// Zhou & Huang for the singularity problem).
func (c *Cluster) InverseCov(scheme Scheme) *linalg.Matrix {
	cov := c.SampleCov()
	return InverseOf(cov, scheme)
}

// InverseDiag returns, for the Diagonal scheme fast path, the elementwise
// inverse of the covariance diagonal as a vector.
func (c *Cluster) InverseDiag() linalg.Vector {
	cov := c.SampleCov()
	return InverseDiagOf(cov)
}

// varianceFloor returns the variance floor used for degenerate dimensions,
// scaled by the largest observed variance so that tight but non-degenerate
// clusters are left untouched.
func varianceFloor(diag linalg.Vector) float64 {
	var maxVar float64
	for _, v := range diag {
		if v > maxVar {
			maxVar = v
		}
	}
	if maxVar <= 0 {
		return 1 // all dimensions degenerate: fall back to Euclidean
	}
	return 1e-9 * maxVar
}

// InverseDiagOf returns the elementwise inverse of cov's diagonal with
// degenerate entries floored.
func InverseDiagOf(cov *linalg.Matrix) linalg.Vector {
	inv, _ := InverseDiagOfInfo(cov)
	return inv
}

// InverseDiagOfInfo is InverseDiagOf plus a degradation report: degraded
// is true when any diagonal entry was at the variance floor, i.e. the
// cluster's covariance was singular along at least one dimension and the
// distance falls back to a floored variance there.
func InverseDiagOfInfo(cov *linalg.Matrix) (inv linalg.Vector, degraded bool) {
	diag := cov.Diagonal()
	floor := varianceFloor(diag)
	inv = make(linalg.Vector, len(diag))
	for i, v := range diag {
		if v < floor {
			v = floor
			degraded = true
		}
		inv[i] = 1 / v
	}
	return inv, degraded
}

// InverseOf returns cov⁻¹ under the given scheme (diagonal-only or full,
// regularized when singular).
func InverseOf(cov *linalg.Matrix, scheme Scheme) *linalg.Matrix {
	inv, _ := InverseOfInfo(cov, scheme)
	return inv
}

// InverseOfInfo is InverseOf plus a degradation report: degraded is true
// when the covariance was singular and the inverse came from a fallback
// — a floored variance (either scheme) or the ridge-regularized inverse
// (full scheme). The faultinject.SingularCovariance hook forces the
// full-scheme ridge path for tests.
func InverseOfInfo(cov *linalg.Matrix, scheme Scheme) (inv *linalg.Matrix, degraded bool) {
	switch scheme {
	case Diagonal:
		d, degraded := InverseDiagOfInfo(cov)
		return linalg.Diag(d), degraded
	case FullInverse:
		// Floor fully-degenerate covariances the same way.
		diag := cov.Diagonal()
		floor := varianceFloor(diag)
		work := cov.Clone()
		floored := false
		for i := 0; i < work.Rows; i++ {
			if work.At(i, i) < floor {
				work.Set(i, i, floor)
				floored = true
			}
		}
		if faultinject.Enabled(faultinject.SingularCovariance) {
			return work.RegularizedInverse(1e-8), true
		}
		inv, regularized := work.InverseOrRegularizedInfo(1e-8)
		return inv, floored || regularized
	default:
		panic("cluster: unknown scheme")
	}
}

// Mahalanobis returns (x - x̄)' S⁻¹ (x - x̄) for this cluster under the
// given scheme — the quadratic distance of Eq. 1 and the effective-radius
// test of Lemma 1 share this form.
func (c *Cluster) Mahalanobis(x linalg.Vector, scheme Scheme) float64 {
	d := x.Sub(c.Mean)
	if scheme == Diagonal {
		inv := c.InverseDiag()
		var s float64
		for i := range d {
			s += d[i] * d[i] * inv[i]
		}
		return s
	}
	return c.InverseCov(FullInverse).QuadForm(d)
}

// Centroid returns a copy of the cluster centroid.
func (c *Cluster) Centroid() linalg.Vector { return c.Mean.Clone() }

// WithoutPoint returns a new cluster over Points minus the point at index
// i, recomputed exactly. It backs the leave-one-out error rate of
// Sec. 4.5.
func (c *Cluster) WithoutPoint(i int) *Cluster {
	if i < 0 || i >= len(c.Points) {
		panic("cluster: WithoutPoint index out of range")
	}
	out := New(c.Dim())
	for j, p := range c.Points {
		if j == i {
			continue
		}
		out.Add(p)
	}
	return out
}

// TotalWeight sums the weights m_i over clusters (the Σm_i of Eq. 5).
func TotalWeight(cs []*Cluster) float64 {
	var s float64
	for _, c := range cs {
		s += c.Weight
	}
	return s
}

// Validate checks internal consistency; it returns an error describing the
// first violated invariant, or nil. Used by tests and debug builds.
func (c *Cluster) Validate() error {
	var w float64
	for _, p := range c.Points {
		if p.Score <= 0 {
			return fmt.Errorf("cluster: non-positive score %v", p.Score)
		}
		w += p.Score
	}
	if math.Abs(w-c.Weight) > 1e-9*math.Max(1, w) {
		return fmt.Errorf("cluster: weight %v != Σscores %v", c.Weight, w)
	}
	// Scatter must be symmetric PSD-ish: check symmetry and nonnegative diag.
	for i := 0; i < c.Scatter.Rows; i++ {
		if c.Scatter.At(i, i) < -1e-9 {
			return fmt.Errorf("cluster: negative variance at %d", i)
		}
		for j := i + 1; j < c.Scatter.Cols; j++ {
			if math.Abs(c.Scatter.At(i, j)-c.Scatter.At(j, i)) > 1e-6 {
				return fmt.Errorf("cluster: asymmetric scatter at (%d,%d)", i, j)
			}
		}
	}
	return nil
}
