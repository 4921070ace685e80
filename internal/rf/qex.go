package rf

import (
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// QEX is the query-expansion baseline (Porkaew & Chakrabarti's MARS query
// refinement [13]): each round, the CURRENT relevant images plus the
// previous round's representatives (carried as weighted pseudo-points,
// the paper's "query expansion" memory) are grouped into local clusters,
// whose centroids become the new representatives. Unlike Qcluster the
// representatives are combined by a *weighted average* of distances, so
// the equi-distance contour is one convex region covering all
// representatives — the "single large contour" the paper's Examples 1-2
// criticize for complex queries.
type QEX struct {
	noModel
	maxClusters int

	query linalg.Vector
	reps  []cluster.Point // carried representatives (weighted pseudo-points)
	parts []*distance.Quadratic
	ws    []float64
}

// NewQEX builds the engine. maxClusters bounds the number of local
// representatives (5 by default, matching Qcluster's default for a fair
// comparison).
func NewQEX(maxClusters int) *QEX {
	if maxClusters <= 0 {
		maxClusters = 5
	}
	return &QEX{maxClusters: maxClusters}
}

// Name implements Engine.
func (e *QEX) Name() string { return "QEX" }

// Init implements Engine.
func (e *QEX) Init(q linalg.Vector) {
	e.query = q.Clone()
	e.reps = nil
	e.parts = nil
	e.ws = nil
}

// Feedback implements Engine.
func (e *QEX) Feedback(points []cluster.Point) {
	pool := make([]cluster.Point, 0, len(points)+len(e.reps))
	for _, p := range points {
		if p.Score > 0 {
			pool = append(pool, p)
		}
	}
	if len(pool) == 0 {
		return
	}
	// Previous representatives participate with half their weight — the
	// query-expansion carry-over (fresh evidence dominates).
	for _, r := range e.reps {
		r.Score *= 0.5
		pool = append(pool, r)
	}

	cs := cluster.Agglomerate(pool, e.maxClusters)
	// Per-representative covariances are shrunk toward the pooled
	// covariance exactly as in the Qcluster engine, so the comparison
	// isolates the aggregate SHAPE (convex combination vs fuzzy OR)
	// rather than covariance-estimation noise.
	pooled := cluster.PooledAll(cs)
	tau := float64(cs[0].Dim() + 1)
	e.parts = make([]*distance.Quadratic, len(cs))
	e.ws = make([]float64, len(cs))
	e.reps = make([]cluster.Point, len(cs))
	for i, c := range cs {
		cov := cluster.ShrunkCov(c, pooled, tau)
		e.parts[i] = distance.NewQuadraticDiag(c.Mean, cluster.InverseDiagOf(cov))
		e.ws[i] = c.Weight
		e.reps[i] = cluster.Point{ID: -1, Vec: c.Mean.Clone(), Score: c.Weight}
	}
}

// Metric implements Engine: the weighted arithmetic mean of
// per-representative weighted-Euclidean distances (a convex combination,
// hence one convex contour).
func (e *QEX) Metric() distance.Metric {
	if len(e.parts) == 0 {
		return initialMetric(e.query)
	}
	return distance.NewConvexCombination(e.parts, e.ws)
}
