package cluster

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/stat"
)

// PooledTwo returns the two-cluster pooled covariance of Eq. 15:
// S_pooled = (scatter_i + scatter_j) / (m_i + m_j - 2), the standard
// two-sample pooling under which T² follows the scaled F distribution of
// Eq. 16. (The paper's Eq. 15 prints the divisor as m_i+m_j; its critical
// value c² and Tables 2-3 use the conventional m_i+m_j-2, which we follow.
// For the paper's cluster sizes of 30 the difference is under 4%.)
func PooledTwo(a, b *Cluster) *linalg.Matrix {
	den := a.Weight + b.Weight - 2
	if den <= 0 {
		den = 1
	}
	return a.Scatter.Add(b.Scatter).Scale(1 / den)
}

// PooledAll returns the g-cluster pooled covariance of Eq. 7:
// S_pooled = Σ (m_i - 1) S_i / (Σ m_i - g) = Σ scatter_i / (Σ m_i - g),
// used by the Bayesian classification distance D_i²(x).
func PooledAll(cs []*Cluster) *linalg.Matrix {
	if len(cs) == 0 {
		panic("cluster: PooledAll with no clusters")
	}
	dim := cs[0].Dim()
	sum := linalg.NewMatrix(dim, dim)
	var totalW float64
	for _, c := range cs {
		sum.AddScaledInPlace(1, c.Scatter)
		totalW += c.Weight
	}
	den := totalW - float64(len(cs))
	if den <= 0 {
		den = 1
	}
	return sum.Scale(1 / den)
}

// ShrunkCov returns cluster c's sample covariance shrunk toward the
// pooled covariance of the whole query-cluster set:
//
//	S̃_i = ((m_i - 1) S_i + τ S_pooled) / (m_i - 1 + τ)
//
// with prior strength τ. A freshly seeded singleton (m_i ≈ its score) has
// no covariance of its own and inherits the pooled shape and SCALE; a
// heavy cluster keeps its own statistics. This keeps the per-cluster
// Mahalanobis distances inside the aggregate disjunctive function (Eq. 5)
// on one common scale — without it, a degenerate cluster's floored
// covariance makes its neighborhood artificially close and hijacks the
// top-k.
// It is the covariance analogue of the paper's use of pooled statistics
// as prior information in the Bayesian classifier.
func ShrunkCov(c *Cluster, pooled *linalg.Matrix, tau float64) *linalg.Matrix {
	if tau <= 0 {
		return c.SampleCov()
	}
	own := c.Weight - 1
	if own < 0 {
		own = 0
	}
	out := pooled.Scale(tau / (own + tau))
	if own > 0 {
		out.AddScaledInPlace(own/(own+tau), c.SampleCov())
	}
	return out
}

// pooledGap returns the centroid gap under the two-cluster pooled
// within-covariance, (x̄_i - x̄_j)' S_pooled⁻¹ (x̄_i - x̄_j) — the quadratic
// form T² scales and the small-sample merge rule thresholds.
func pooledGap(a, b *Cluster, scheme Scheme) float64 {
	inv := InverseOf(PooledTwo(a, b), scheme)
	return inv.QuadForm(a.Mean.Sub(b.Mean))
}

// T2 computes Hotelling's two-sample T² statistic (Definition 3):
// T² = (m_i m_j / (m_i + m_j)) (x̄_i - x̄_j)' S_pooled⁻¹ (x̄_i - x̄_j),
// under the given covariance scheme (full inverse or diagonal).
func T2(a, b *Cluster, scheme Scheme) float64 {
	return t2Factor(a, b) * pooledGap(a, b, scheme)
}

func t2Factor(a, b *Cluster) float64 { return a.Weight * b.Weight / (a.Weight + b.Weight) }

// CriticalValue returns c² of Eq. 16 at significance level alpha:
// c² = p (m_i + m_j - 2) / (m_i + m_j - p - 1) · F_{p, m_i+m_j-p-1}(α),
// the upper 100(1-α)th percentile of the F distribution scaled to T².
// When the combined weight is too small for the F degrees of freedom
// (m_i + m_j <= p + 1) it returns +Inf, meaning "never reject": tiny
// clusters merge freely, matching the paper's behaviour at the first
// iterations where every cluster holds a single point.
func CriticalValue(a, b *Cluster, dim int, alpha float64) float64 {
	m := a.Weight + b.Weight
	p := float64(dim)
	df2 := m - p - 1
	if df2 <= 0 {
		return math.Inf(1)
	}
	f := stat.FQuantile(1-alpha, p, df2)
	return p * (m - 2) / df2 * f
}
