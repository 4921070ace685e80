// Package classify implements the adaptive classification stage of the
// Qcluster paper (Sec. 4.2): the Bayesian classification function over the
// current clusters (Eq. 10), the effective-radius membership test
// (Lemma 1, Eq. 6) and Algorithm 2, which places each new relevant point
// into the best existing cluster or seeds a new one.
package classify

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/stat"
)

// Options configures the classifier.
type Options struct {
	// Scheme selects the pooled-covariance inversion: diagonal (MARS,
	// paper default) or full inverse (MindReader).
	Scheme cluster.Scheme
	// Alpha is the significance level that sets the effective radius
	// χ²_p(1-α): with α = 0.05, 95% of a Gaussian cluster's mass falls
	// inside the ellipsoid (Lemma 1). Defaults to 0.05.
	Alpha float64
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	return o
}

// Classifier scores points against a fixed set of clusters. It
// precomputes the pooled inverse covariance (Eq. 7) and the cluster
// priors, so classifying each point is a handful of quadratic forms.
type Classifier struct {
	clusters  []*cluster.Cluster
	pooledInv *linalg.Matrix // S_pooled⁻¹ under the chosen scheme
	logPriors []float64      // ln(w_i)
	radius    float64        // effective radius χ²_p(1-α)
	opt       Options
}

// New builds a classifier over the given clusters. It panics when cs is
// empty (Algorithm 2 is only invoked once initial clusters exist).
func New(cs []*cluster.Cluster, opt Options) *Classifier {
	if len(cs) == 0 {
		panic("classify: no clusters")
	}
	opt = opt.withDefaults()
	c := &Classifier{
		radius: stat.ChiSquareQuantile(1-opt.Alpha, float64(cs[0].Dim())),
		opt:    opt,
	}
	c.reset(cs)
	return c
}

// reset points the classifier at cs and recomputes what depends on the
// clusters' statistics — the pooled inverse covariance and the log-priors
// — reusing the log-prior buffer. The effective radius depends only on
// (α, p) and is kept.
func (c *Classifier) reset(cs []*cluster.Cluster) {
	c.clusters = cs
	c.pooledInv = cluster.InverseOf(cluster.PooledAll(cs), c.opt.Scheme)
	total := cluster.TotalWeight(cs)
	c.logPriors = c.logPriors[:0]
	for _, cl := range cs {
		// w_i = m_i / Σ m_k (Sec. 4.2.1). A zero-weight cluster (0/0 when
		// all are) cannot attract points; -Inf prior is avoided by an
		// extremely small stand-in.
		lp := -1e300
		if w := cl.Weight / total; w > 0 {
			lp = math.Log(w)
		}
		c.logPriors = append(c.logPriors, lp)
	}
}

// Score returns the Bayesian classification function value d̂_i(x) of
// Eq. 10 for cluster index i:
// d̂_i(x) = -½ (x - x̄_i)' S_pooled⁻¹ (x - x̄_i) + ln(w_i).
func (c *Classifier) Score(i int, x linalg.Vector) float64 {
	return -0.5*c.pooledInv.QuadFormDiff(x, c.clusters[i].Mean) + c.logPriors[i]
}

// Best returns the index k maximizing d̂_k(x) (Algorithm 2 line 3) along
// with the winning score.
func (c *Classifier) Best(x linalg.Vector) (k int, score float64) {
	k = 0
	score = c.Score(0, x)
	for i := 1; i < len(c.clusters); i++ {
		if s := c.Score(i, x); s > score {
			k, score = i, s
		}
	}
	return k, score
}

// InsideRadius reports whether x lies inside cluster k's effective
// ellipsoid: (x - x̄_k)' S_k⁻¹ (x - x̄_k) < χ²_p(1-α)  (Lemma 1 / Eq. 6),
// where S_k is cluster k's own covariance under the configured scheme.
// d is that Mahalanobis distance.
func (c *Classifier) InsideRadius(k int, x linalg.Vector) (d float64, inside bool) {
	d = c.clusters[k].Mahalanobis(x, c.opt.Scheme)
	return d, d < c.radius
}

// Decision is Algorithm 2's verdict on one point: the Eq. 10 winner (-1
// with no clusters to score) and its score, the point's Mahalanobis
// distance from it against the χ² radius, and whether the point joined
// it or seeded a new cluster, appended after the others.
type Decision struct {
	PointID             int
	Winner              int
	Score               float64
	Mahalanobis, Radius float64
	New                 bool
}

// ClassifyAll runs Algorithm 2 over a batch of new points against the
// given starting clusters: each point is appended to the chosen cluster
// (updating its statistics incrementally) or becomes a new singleton
// cluster. The classifier's cluster statistics are recomputed after every
// insertion so later points see updated statistics, matching the
// sequential loop of Algorithm 2; only what an insertion cannot change
// (the χ² radius, the buffers) is kept across points. It returns the
// resulting cluster set and one decision per point, in order.
func ClassifyAll(cs []*cluster.Cluster, points []cluster.Point, opt Options) ([]*cluster.Cluster, []Decision) {
	work := make([]*cluster.Cluster, len(cs))
	copy(work, cs)
	decisions := make([]Decision, len(points))
	var cl *Classifier
	for i, p := range points {
		if len(work) == 0 {
			work = append(work, cluster.FromPoint(p))
			decisions[i] = Decision{PointID: p.ID, Winner: -1, New: true}
			continue
		}
		if cl == nil {
			cl = New(work, opt)
		} else {
			cl.reset(work)
		}
		// Algorithm 2's decision: the Eq. 10 winner, then the radius test.
		k, score := cl.Best(p.Vec)
		d, inside := cl.InsideRadius(k, p.Vec)
		decisions[i] = Decision{PointID: p.ID, Winner: k, Score: score,
			Mahalanobis: d, Radius: cl.radius, New: !inside}
		if inside {
			work[k].Add(p)
		} else {
			work = append(work, cluster.FromPoint(p))
		}
	}
	return work, decisions
}

// ErrorRate measures clustering quality per Sec. 4.5: for every point,
// remove it from its cluster, re-run the classification decision over the
// cluster set (with the removed point's cluster statistics recomputed
// without it) and count how often the point returns to its own cluster.
// The result is 1 - C/N. Singleton clusters are skipped in the removal
// (their removal would empty the cluster); their points are classified
// against the full set instead.
func ErrorRate(cs []*cluster.Cluster, opt Options) float64 {
	total, correct := 0, 0
	for ci, c := range cs {
		for pi := range c.Points {
			total++
			// Rebuild the cluster set with the point held out.
			held := make([]*cluster.Cluster, 0, len(cs))
			for cj, other := range cs {
				if cj != ci {
					held = append(held, other)
					continue
				}
				if other.N() == 1 {
					// Hold-out would empty it; classify against all.
					held = append(held, other)
					continue
				}
				held = append(held, other.WithoutPoint(pi))
			}
			cl := New(held, opt)
			if k, _ := cl.Best(c.Points[pi].Vec); k == ci {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(correct)/float64(total)
}
