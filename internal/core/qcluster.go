// Package core implements the paper's primary contribution: the Qcluster
// multipoint relevance-feedback query model. Across feedback iterations it
// maintains a set of query clusters using adaptive classification
// (Algorithm 2) and Hotelling-T² cluster merging (Algorithm 3), and
// exposes the weighted aggregate disjunctive distance (Eq. 5) that the
// k-NN search runs with — the full loop of Algorithm 1.
package core

import (
	"math"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// Options tunes the query model. The zero value gives the paper's
// defaults: diagonal covariance scheme, α = 0.05, at most 5 query points.
type Options struct {
	// Scheme selects diagonal (paper default, Fig. 6) or full-inverse
	// covariance handling throughout classification, merging and search.
	Scheme cluster.Scheme
	// Alpha is the significance level used for both the effective radius
	// (Lemma 1) and the T² merge test (Eq. 16). Defaults to 0.05.
	Alpha float64
	// MaxClusters bounds the number of query points after merging; the
	// merge stage relaxes α until the bound holds (Algorithm 3 lines
	// 7-11). Defaults to 5. Zero keeps the default; negative means
	// unbounded.
	MaxClusters int
	// InitialLinkage selects the hierarchical-clustering linkage for the
	// first iteration (Sec. 4.1). Defaults to centroid linkage, which
	// groups points into hyperspherical regions.
	InitialLinkage cluster.Linkage
	// InitialGapFactor is the merge-distance jump ratio at which the
	// initial hierarchical clustering cuts the dendrogram (see
	// cluster.AgglomerateGap). Defaults to 2.
	InitialGapFactor float64
	// Ablations disables individual small-sample corrections for
	// controlled comparisons against the literally-read paper algorithm.
	Ablations Ablations
}

// Ablations toggles the implementation's small-sample corrections off,
// one at a time, so their individual contributions can be measured (the
// ablation experiment in cmd/qbench and bench_test.go). All false — the
// default — is the recommended configuration.
type Ablations struct {
	// RawCovariances makes the aggregate disjunctive distance (Eq. 5)
	// use raw per-cluster sample covariances instead of pooled-shrunk
	// ones. Young clusters then rank on incompatible Mahalanobis scales.
	RawCovariances bool
	// PlainChiSquareRadius uses χ²_p(1-α) as the effective radius for
	// every cluster regardless of its sample size (Lemma 1 literal).
	PlainChiSquareRadius bool
	// NoOverlapMerge restricts Algorithm 3 to the T² test only; dense
	// relevant regions then stay fragmented across micro-clusters.
	NoOverlapMerge bool
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
	if o.InitialGapFactor <= 1 {
		o.InitialGapFactor = 2
	}
	if o.InitialLinkage == 0 {
		o.InitialLinkage = cluster.CentroidLinkage
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

// Representatives returns the current cluster centroids — the multipoint
// query set Q.
func (m *QueryModel) Representatives() []linalg.Vector {
	return cluster.Centroids(m.clusters)
}

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
	span := obs.StartSpan(m.sink, "feedback.round",
		obs.F("round", m.rounds), obs.F("new_points", len(fresh)),
		obs.F("clusters_before", len(m.clusters)))

	if len(m.clusters) == 0 {
		// Initial iteration (Sec. 4.1): hierarchical clustering groups
		// the relevant points, cutting the dendrogram at the first large
		// relative jump in merge distance — the first cross-mode merge.
		// Points within one density-connected region coalesce; distinct
		// modes stay separate. Pure statistical merging from singletons
		// cannot do this job: greedy nearest-pair merges produce tiny
		// fragments whose sample covariances wildly underestimate the
		// mode scale, so every equality-of-means test keeps them apart.
		if len(fresh) <= 4 {
			// Too few points for dendrogram statistics (e.g. a user's
			// handful of example images): start from singletons and let
			// the statistical merge below decide what belongs together.
			m.clusters = make([]*cluster.Cluster, len(fresh))
			for i, p := range fresh {
				m.clusters[i] = cluster.FromPoint(p)
			}
			span.Event("initial.cluster",
				obs.F("path", "singletons"), obs.F("clusters", len(m.clusters)))
		} else {
			m.clusters = cluster.AgglomerateGap(fresh, m.opt.InitialLinkage, m.opt.InitialGapFactor)
			span.Event("initial.cluster",
				obs.F("path", "hierarchical"), obs.F("clusters", len(m.clusters)))
		}
	} else {
		copt := m.classifyOptions()
		copt.Trace = span
		m.clusters = classify.ClassifyAll(m.clusters, fresh, copt)
	}

	m.clusters = cluster.Merge(m.clusters, cluster.MergeOptions{
		Scheme:         m.opt.Scheme,
		Alpha:          m.opt.Alpha,
		MaxClusters:    m.opt.MaxClusters,
		DisableOverlap: m.opt.Ablations.NoOverlapMerge,
		Trace:          span,
	})
	span.End(obs.F("clusters", len(m.clusters)))
}

func (m *QueryModel) classifyOptions() classify.Options {
	return classify.Options{
		Scheme:               m.opt.Scheme,
		Alpha:                m.opt.Alpha,
		PlainChiSquareRadius: m.opt.Ablations.PlainChiSquareRadius,
	}
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

// ClusterInfo is a diagnostic snapshot of one query cluster.
type ClusterInfo struct {
	// Centroid is the cluster representative x̄_i.
	Centroid linalg.Vector
	// Points is the number of member images n_i.
	Points int
	// Weight is the relevance mass m_i.
	Weight float64
	// RMSRadius is the root-mean-square Euclidean distance of members
	// from the centroid — a scale indicator for display.
	RMSRadius float64
}

// Snapshot returns per-cluster diagnostics for display and debugging.
func (m *QueryModel) Snapshot() []ClusterInfo {
	out := make([]ClusterInfo, len(m.clusters))
	for i, c := range m.clusters {
		info := ClusterInfo{
			Centroid: c.Centroid(),
			Points:   c.N(),
			Weight:   c.Weight,
		}
		var s float64
		for _, p := range c.Points {
			s += p.Vec.SqDist(c.Mean)
		}
		if c.N() > 0 {
			info.RMSRadius = math.Sqrt(s / float64(c.N()))
		}
		out[i] = info
	}
	return out
}
