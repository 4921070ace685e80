// Package qcluster is a Go implementation of Qcluster — the adaptive
// classification and cluster-merging relevance-feedback method for
// content-based image retrieval of Kim & Chung (SIGMOD 2003).
//
// A Query models the user's evolving information need as a set of
// weighted clusters in feature space. Each feedback round, newly marked
// relevant items are placed into clusters by a Bayesian classifier
// (Algorithm 2), statistically indistinct clusters are merged with
// Hotelling's T² test (Algorithm 3), and retrieval runs a k-NN search
// under the weighted aggregate disjunctive distance (Eq. 5) — so a
// "complex" query whose relevant items form several disjoint regions is
// answered with disjoint contours rather than one moved point (MARS QPM)
// or one large convex contour (MARS query expansion).
//
// Typical use:
//
//	db, _ := qcluster.NewDatabase(vectors)
//	session := db.NewSession(db.Vector(42), qcluster.Options{})
//	for round := 0; round < 5; round++ {
//		results := session.Results(100)
//		session.MarkRelevant(judge(results)) // user feedback
//	}
package qcluster

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// Scheme selects how inverse covariance matrices are estimated.
type Scheme int

const (
	// Diagonal uses only the covariance diagonal (MARS-style). It is the
	// default: immune to the small-sample singularity problem and far
	// cheaper (paper Fig. 6) at near-identical retrieval quality.
	Diagonal Scheme = iota
	// FullInverse inverts the complete covariance (MindReader-style),
	// which additionally handles arbitrarily oriented ellipsoids.
	FullInverse
)

func (s Scheme) internal() cluster.Scheme {
	if s == FullInverse {
		return cluster.FullInverse
	}
	return cluster.Diagonal
}

// Options tunes a Query. The zero value reproduces the paper's defaults.
type Options struct {
	// Scheme selects Diagonal (default) or FullInverse covariances.
	Scheme Scheme
	// Alpha is the significance level α shared by the effective-radius
	// test (Lemma 1) and the T² merge test (Eq. 16). Default 0.05;
	// Feedback refuses a value outside [0, 1).
	Alpha float64
	// MaxQueryPoints bounds the number of cluster representatives after
	// merging. Default 5; negative means unbounded.
	MaxQueryPoints int
	// Sink, when non-nil, receives structured trace events from the
	// query pipeline: one "feedback.round" span per absorbed feedback
	// round (classification decisions, merge accepts, final cluster
	// count) and one "metric.build" event per metric construction
	// (scheme, ridge fallbacks). Nil — the default — disables tracing;
	// the hot path then pays only a nil check. See NewSlogSink and
	// MemorySink for ready-made sinks.
	Sink Sink
}

func (o Options) internal() core.Options {
	return core.Options{
		Scheme:      o.Scheme.internal(),
		Alpha:       o.Alpha,
		MaxClusters: o.MaxQueryPoints,
	}
}

// Point is one relevance-marked item: its database id, feature vector and
// the user's relevance score (> 0; the paper uses 3 for most-relevant and
// 1 for related).
type Point struct {
	ID    int
	Vec   []float64
	Score float64
}

// Query is the evolving multipoint query model. It is safe for
// concurrent use: feedback absorption and metric construction are
// serialized by an internal mutex.
type Query struct {
	mu    sync.Mutex
	model *core.QueryModel
	dim   int // fixed by the first accepted point; 0 until then
}

// NewQuery creates an empty query model.
func NewQuery(opt Options) *Query {
	q := &Query{model: core.New(opt.internal())}
	q.model.SetSink(opt.Sink)
	return q
}

// SetSink attaches (or, with nil, detaches) a trace sink after
// construction — e.g. on a query restored by LoadQuery, whose sink is
// runtime wiring and is not persisted.
func (q *Query) SetSink(s Sink) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.model.SetSink(s)
}

// Feedback absorbs one round of relevance-marked points. Points with
// non-positive scores or already-seen IDs are ignored. It returns an
// error (and absorbs nothing) when the query's Alpha lies outside
// [0, 1), when any point's dimensionality conflicts with the query's
// established dimensionality or with the rest of the batch, or when any
// positively scored point carries a non-finite (NaN or ±Inf) component —
// a poisoned vector would otherwise silently corrupt the cluster means.
func (q *Query) Feedback(points []Point) (err error) {
	defer barrier("Feedback", &err)
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.model.Options().Validate(); err != nil {
		return fmt.Errorf("qcluster: %w", err)
	}
	dim := q.dim
	ps := make([]cluster.Point, 0, len(points))
	for i, p := range points {
		if p.Score <= 0 {
			continue
		}
		if len(p.Vec) == 0 {
			return fmt.Errorf("qcluster: feedback point %d has an empty vector", i)
		}
		if dim == 0 {
			dim = len(p.Vec)
		} else if len(p.Vec) != dim {
			return fmt.Errorf("qcluster: feedback point %d has dimension %d, want %d",
				i, len(p.Vec), dim)
		}
		if err := checkFinite(i, p.Vec); err != nil {
			return err
		}
		ps = append(ps, cluster.Point{ID: p.ID, Vec: linalg.Vector(p.Vec), Score: p.Score})
	}
	q.model.Feedback(ps)
	q.dim = dim
	return nil
}

// metric builds the current aggregate disjunctive distance under the
// query lock, recording any covariance degradation on the query health.
func (q *Query) metric() distance.Metric {
	q.mu.Lock()
	defer q.mu.Unlock()
	m, _ := q.model.MetricInfo()
	return m
}

// Health returns the query-health status of the most recent metric
// construction: how many clusters the query aggregates and how many of
// them needed the regularized-covariance fallback (see Health).
func (q *Query) Health() Health {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.Health()
}

// Rounds returns the number of feedback rounds the model has absorbed
// (rounds marking only already-seen or non-positive points don't
// count). Persisted by Save, so a restored query resumes its count.
func (q *Query) Rounds() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.Rounds()
}

// NumQueryPoints returns the current number of cluster representatives.
func (q *Query) NumQueryPoints() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.NumClusters()
}

// Representatives returns the current cluster centroids — the multipoint
// query the next search runs with.
func (q *Query) Representatives() [][]float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	cs := q.model.Clusters()
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = c.Centroid()
	}
	return out
}

// ClusterQualityError reports the leave-one-out misclassification rate of
// the current clusters (Sec. 4.5): 0 means every relevant item would be
// re-classified into its own cluster.
func (q *Query) ClusterQualityError() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.ErrorRate()
}

// Ready reports whether the query has absorbed any feedback yet; before
// that, searches fall back to the plain example-point query.
func (q *Query) Ready() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.NumClusters() > 0
}

// Save serializes the query model (clusters, member points, options) so
// a relevance-feedback session can be suspended and resumed later.
func (q *Query) Save(w io.Writer) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.model.Save(w)
}

// LoadQuery restores a query model written by Save.
func LoadQuery(r io.Reader) (*Query, error) {
	m, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	q := &Query{model: m}
	if cs := m.Clusters(); len(cs) > 0 {
		q.dim = cs[0].Dim()
	}
	return q, nil
}
