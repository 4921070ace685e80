// Package core implements the paper's primary contribution: the Qcluster
// multipoint relevance-feedback query model. Across feedback iterations it
// maintains a set of query clusters using adaptive classification
// (Algorithm 2) and Hotelling-T² cluster merging (Algorithm 3), and
// exposes the weighted aggregate disjunctive distance (Eq. 5) that the
// k-NN search runs with — the full loop of Algorithm 1.
package core

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// Options tunes the query model. The zero value gives the paper's
// defaults: diagonal covariance scheme, α = 0.05, at most 5 query points.
// The first round always clusters by centroid linkage cut at the first
// doubling of the merge distance (cluster.AgglomerateGap); Algorithm 2
// tests against Lemma 1's χ²_p(1-α) radius and Algorithm 3 merges on
// Hotelling's T², both as the paper prints them.
type Options struct {
	// Scheme selects diagonal (paper default, Fig. 6) or full-inverse
	// covariance handling throughout classification, merging and search.
	Scheme cluster.Scheme
	// Alpha is the significance level used for both the effective radius
	// (Lemma 1) and the T² merge test (Eq. 16), in [0, 1). Zero means
	// 0.05.
	Alpha float64
	// MaxClusters bounds the number of query points after merging; the
	// merge stage relaxes α until the bound holds (Algorithm 3 lines
	// 7-11). Defaults to 5. Zero keeps the default; negative means
	// unbounded.
	MaxClusters int
	// Ablations switches off the one correction the model adds to the
	// paper, for the controlled comparison of cmd/qbench -exp ablation.
	Ablations Ablations
}

// Ablations toggles the implementation's small-sample correction off, so
// its contribution can be measured (the ablation experiment in cmd/qbench
// and bench_test.go). False — the default — is the recommended
// configuration.
type Ablations struct {
	// RawCovariances makes the aggregate disjunctive distance (Eq. 5)
	// use raw per-cluster sample covariances instead of ones shrunk
	// toward the pooled covariance with τ = p + 1. Young clusters then
	// rank on incompatible Mahalanobis scales.
	RawCovariances bool
}

// Validate reports options no query model can run with: an unknown
// Scheme, or an Alpha outside [0, 1) — α ≥ 1 gives radius 0 and c² = 0,
// so nothing ever merges, and a negative α gives +Inf for both, so
// everything collapses into one cluster.
func (o Options) Validate() error {
	if o.Scheme != cluster.Diagonal && o.Scheme != cluster.FullInverse {
		return fmt.Errorf("unknown scheme %v", o.Scheme)
	}
	if !(o.Alpha >= 0 && o.Alpha < 1) {
		return fmt.Errorf("alpha %g out of (0, 1)", o.Alpha)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.MaxClusters == 0 {
		o.MaxClusters = 5
	}
	if o.MaxClusters < 0 {
		o.MaxClusters = 0 // unbounded for the merge stage
	}
	return o
}

// QueryModel is the evolving multipoint query
// Q = {x̄_1, ..., x̄_g} with per-cluster covariances and weights.
type QueryModel struct {
	clusters []*cluster.Cluster
	seen     map[int]bool // image ids already absorbed
	opt      Options
	health   Health   // degradation trace of the last Metric construction
	sink     obs.Sink // trace sink; nil disables tracing (see SetSink)
	rounds   int      // feedback rounds that absorbed at least one point
	round    Round    // decisions of the last round that absorbed points
}

// Health is the query-health status: it records how the most recent
// metric construction degraded to keep a singular covariance from
// crashing retrieval (ridge-regularized inverses, floored variances).
// The zero value means "healthy" — no fallback was needed.
type Health struct {
	// Clusters is the number of query clusters in the last-built metric
	// (0 before any metric has been built).
	Clusters int
	// DegradedClusters counts clusters whose covariance was singular and
	// whose distance came from the regularized/floored fallback.
	DegradedClusters int
}

// Degraded reports whether the last-built metric needed any covariance
// fallback.
func (h Health) Degraded() bool { return h.DegradedClusters > 0 }

// New returns an empty query model.
func New(opt Options) *QueryModel {
	return &QueryModel{seen: map[int]bool{}, opt: opt.withDefaults()}
}

// Options returns the effective (defaulted) options.
func (m *QueryModel) Options() Options { return m.opt }

// SetSink attaches a trace sink: every later feedback round emits a
// "feedback.round" span whose events record the Algorithm-2
// classification decisions, the Algorithm-3 merge accepts, and the
// final cluster count; every metric construction emits a
// "metric.build" event. A nil sink (the default) disables tracing at
// zero cost. The sink is runtime wiring, not model state — it is not
// persisted by Save.
func (m *QueryModel) SetSink(s obs.Sink) { m.sink = s }

// Rounds returns the number of feedback rounds that absorbed at least
// one new point.
func (m *QueryModel) Rounds() int { return m.rounds }

// NumClusters returns the current number of query points g.
func (m *QueryModel) NumClusters() int { return len(m.clusters) }

// Clusters exposes the current query clusters (read-only by convention).
func (m *QueryModel) Clusters() []*cluster.Cluster { return m.clusters }

// Feedback absorbs one round of user-marked relevant points (Algorithm 1
// steps 4-15). Points whose IDs were absorbed in earlier rounds are
// skipped — Algorithm 2 classifies only points new to the relevant set.
//
// On the first round the points are grouped by hierarchical clustering
// (Sec. 4.1); on later rounds each point is placed by the Bayesian
// classifier (Algorithm 2). Both paths finish with T² cluster merging
// (Algorithm 3).
func (m *QueryModel) Feedback(points []cluster.Point) {
	faultinject.Fire(faultinject.FeedbackBatch)
	fresh := make([]cluster.Point, 0, len(points))
	for _, p := range points {
		if p.ID >= 0 && m.seen[p.ID] {
			continue
		}
		if p.Score <= 0 {
			continue
		}
		if p.ID >= 0 {
			m.seen[p.ID] = true
		}
		fresh = append(fresh, p)
	}
	if len(fresh) == 0 {
		return
	}
	m.rounds++
	before := len(m.clusters)
	span := obs.StartSpan(m.sink, "feedback.round",
		obs.F("round", m.rounds), obs.F("new_points", len(fresh)),
		obs.F("clusters_before", before))

	m.round = Round{}
	switch {
	case before > 0:
		m.clusters, m.round.Decisions = classify.ClassifyAll(m.clusters, fresh, m.classifyOptions())
	case len(fresh) <= 4:
		// Too few points for dendrogram statistics (e.g. a user's
		// handful of example images): start from singletons and let
		// the statistical merge below decide what belongs together.
		m.round.Initial = "singletons"
		m.clusters = make([]*cluster.Cluster, len(fresh))
		for i, p := range fresh {
			m.clusters[i] = cluster.FromPoint(p)
		}
	default:
		// Initial iteration (Sec. 4.1): hierarchical clustering groups
		// the relevant points, cutting the dendrogram at the first large
		// relative jump in merge distance — the first cross-mode merge.
		// Points within one density-connected region coalesce; distinct
		// modes stay separate. Pure statistical merging from singletons
		// cannot do this job: greedy nearest-pair merges produce tiny
		// fragments whose sample covariances wildly underestimate the
		// mode scale, so every equality-of-means test keeps them apart.
		m.round.Initial = "hierarchical"
		m.clusters = cluster.AgglomerateGap(fresh)
	}
	m.clusters, m.round.Merge = cluster.Merge(m.clusters, cluster.MergeOptions{
		Scheme:      m.opt.Scheme,
		Alpha:       m.opt.Alpha,
		MaxClusters: m.opt.MaxClusters,
	})
	if span.Enabled() {
		m.round.trace(span, before, len(m.clusters))
	}
	span.End(obs.F("clusters", len(m.clusters)))
}

// Round records what one feedback round decided: the first round's
// grouping ("singletons" or "hierarchical") or, on a later round,
// Algorithm 2's decision per point; then Algorithm 3's merges.
type Round struct {
	Initial   string
	Decisions []classify.Decision
	Merge     cluster.MergeRecord
}

// trace emits the round on span as the initial.cluster, classify.* and
// merge.* events, in the order they were decided. The round started
// with before clusters and ended with after.
func (r Round) trace(span *obs.Span, before, after int) {
	n := after + len(r.Merge.Steps) // the count Algorithm 3 started from
	if r.Initial != "" {
		span.Event("initial.cluster", obs.F("path", r.Initial), obs.F("clusters", n))
	}
	for _, d := range r.Decisions {
		if d.New {
			before++
			span.Event("classify.new_cluster", obs.F("point_id", d.PointID), obs.F("nearest", d.Winner),
				obs.F("mahalanobis", d.Mahalanobis), obs.F("radius", d.Radius), obs.F("clusters", before))
		} else {
			span.Event("classify.assign", obs.F("point_id", d.PointID), obs.F("cluster", d.Winner), obs.F("score", d.Score))
		}
	}
	forced := 0
	for _, st := range r.Merge.Steps {
		n--
		name := "merge.accept"
		if st.Forced {
			name, forced = "merge.forced", forced+1
		}
		span.Event(name, obs.F("t2", st.T2), obs.F("c2", st.C2), obs.F("clusters", n))
	}
	span.Event("merge.done", obs.F("pairs_tested", r.Merge.PairsTested),
		obs.F("accepted", len(r.Merge.Steps)-forced), obs.F("forced", forced), obs.F("clusters", after))
}

func (m *QueryModel) classifyOptions() classify.Options {
	return classify.Options{Scheme: m.opt.Scheme, Alpha: m.opt.Alpha}
}

// Metric returns the current aggregate disjunctive distance (Eq. 5) over
// the query clusters. It panics when no feedback has been given yet —
// the initial retrieval is a plain single-point query handled by the
// session layer.
func (m *QueryModel) Metric() distance.Metric {
	metric, _ := m.MetricInfo()
	return metric
}

// MetricInfo is Metric plus the query-health status of the construction:
// singular cluster covariances do not crash the build but fall back to
// regularized/floored inverses, and the returned Health says how many
// clusters needed that. The same Health is retained and readable later
// via Health().
func (m *QueryModel) MetricInfo() (distance.Metric, Health) {
	if len(m.clusters) == 0 {
		panic("core: Metric before any feedback")
	}
	tau := float64(m.clusters[0].Dim() + 1)
	if m.opt.Ablations.RawCovariances {
		tau = 0
	}
	metric, info := distance.FromClustersShrunkInfo(m.clusters, m.opt.Scheme, tau)
	m.health = Health{Clusters: info.Clusters, DegradedClusters: info.DegradedClusters}
	if m.sink != nil {
		obs.EmitEvent(m.sink, "metric.build",
			obs.F("scheme", info.Scheme.String()),
			obs.F("clusters", info.Clusters),
			obs.F("degraded_clusters", info.DegradedClusters),
			obs.F("tau", info.Tau))
	}
	return metric, m.health
}

// Health returns the degradation trace of the most recent metric
// construction (the zero value before any metric has been built).
func (m *QueryModel) Health() Health { return m.health }

// ErrorRate reports the leave-one-out misclassification rate of the
// current clusters — the clustering-quality measure of Sec. 4.5.
func (m *QueryModel) ErrorRate() float64 {
	if len(m.clusters) == 0 {
		return 0
	}
	return classify.ErrorRate(m.clusters, m.classifyOptions())
}

// Description is the query model as one value: the rounds absorbed, the
// health of the last metric build, the clusters of Eq. 5's disjunctive
// query Q = {x̄_1, ..., x̄_g}, and the record of the last round that
// absorbed points. It shares nothing the model later changes.
type Description struct {
	Rounds   int
	Health   Health
	Clusters []ClusterDescription
	Round    Round
}

// ClusterDescription is one query cluster: its representative x̄_i, the
// ids of its member images and its relevance mass m_i.
type ClusterDescription struct {
	Centroid linalg.Vector
	IDs      []int
	Weight   float64
}

// Describe returns the model's description. The round record is not
// persisted, so a loaded model's Round is empty until its next round.
func (m *QueryModel) Describe() Description {
	d := Description{Rounds: m.rounds, Health: m.health, Round: m.round}
	for _, c := range m.clusters {
		ids := make([]int, len(c.Points))
		for i, p := range c.Points {
			ids[i] = p.ID
		}
		d.Clusters = append(d.Clusters, ClusterDescription{Centroid: c.Centroid(), IDs: ids, Weight: c.Weight})
	}
	return d
}
