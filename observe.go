package qcluster

import (
	"log/slog"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
)

// This file is the public observability surface: trace sinks (Sink,
// NewSlogSink, MemorySink), metric snapshots (Database.Metrics,
// Session.Stats) and the debug HTTP endpoint (Database.ServeDebug).
// The types are aliases of the internal obs package so the whole repo
// shares one implementation.

// Sink receives structured trace events from the retrieval pipeline.
// Attach one via Options.Sink (or Query.SetSink); nil disables tracing
// and the hot path pays only a nil check — no allocation, no work.
// Implementations must be safe for concurrent use.
type Sink = obs.Sink

// TraceEvent is one structured trace event (span name, event name,
// time, fields).
type TraceEvent = obs.Event

// TraceField is one key/value attribute on a TraceEvent.
type TraceField = obs.Field

// MemorySink is a Sink collecting events in memory — for tests,
// debugging and offline analysis. The zero value is ready to use.
type MemorySink = obs.MemorySink

// NewSlogSink returns a Sink that forwards trace events to a log/slog
// logger as structured records (nil logger = slog.Default()).
func NewSlogSink(l *slog.Logger) Sink { return obs.NewSlogSink(l) }

// StageNames returns the canonical request-stage names of a cost
// profile in pipeline order: queue, lock, search, merge, feedback,
// encode, resplit — the keys of a /debug/slow entry's stage_ms.
func StageNames() []string { return obs.StageNames[:] }

// MetricsSnapshot is a point-in-time copy of a metrics registry:
// counters, gauges and histogram snapshots keyed by dotted metric name
// (e.g. "search.latency_seconds").
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is a point-in-time copy of one fixed-bucket
// histogram, with Mean and Quantile estimators.
type HistogramSnapshot = obs.HistogramSnapshot

// DebugServer is the HTTP server started by Database.ServeDebug. Close
// shuts it down gracefully without leaking its goroutine.
type DebugServer = obs.DebugServer

// Registry is a live metrics registry (alias of the internal obs
// registry): named atomic counters, gauges and histograms that can be
// snapshotted and served together. A serving layer wrapping a Database
// can merge the database's Registry with its own onto one debug
// endpoint.
type Registry = obs.Registry

// SearchStats describes the index work one search performed: nodes and
// leaves visited against the leaf total, distance evaluations (batched,
// abandoned, skipped), whether it finished as a sweep and its workers,
// with LeavesPruned and PruneRatio derived from them.
type SearchStats = index.SearchStats

// SessionStats is a Session's observability snapshot: cumulative search
// and feedback counters, latency and prune-ratio histograms, and the
// index work of the most recent search.
type SessionStats struct {
	// Searches counts retrievals the session ran (Results and
	// ResultsContext, both the example and the refined query path),
	// pages served from the session's page memo included.
	Searches int64
	// PartialSearches counts retrievals interrupted by context
	// cancellation (results returned with ErrPartialResults).
	PartialSearches int64
	// DegradedSearches counts retrievals whose metric construction
	// needed a covariance fallback (see Health).
	DegradedSearches int64
	// FeedbackRounds counts MarkRelevant calls that absorbed at least
	// one new point.
	FeedbackRounds int64
	// FeedbackPoints counts relevance-marked points absorbed.
	FeedbackPoints int64
	// QueryPoints is the current number of cluster representatives m.
	QueryPoints int
	// LastSearch is the index work of the most recent search; a page
	// served from the memo did none and leaves it as it was.
	LastSearch SearchStats
	// SearchLatencySeconds is the search wall-clock histogram; a page
	// served from the memo searched nothing and is not in it.
	SearchLatencySeconds HistogramSnapshot
	// PruneRatio is the per-search leaf prune-ratio histogram.
	PruneRatio HistogramSnapshot
	// LeavesVisited, LeavesPruned and DistanceEvals accumulate the index
	// work across all of the session's searches.
	LeavesVisited int64
	LeavesPruned  int64
	DistanceEvals int64
}

// dbMetrics holds the database's registry plus cached handles for every
// metric the search hot path touches — the handles make recording a
// search a fixed set of atomic operations with no map lookups, no
// locks and no allocation.
type dbMetrics struct {
	reg *obs.Registry

	source        sourceCounters
	searches      *obs.Counter
	partial       *obs.Counter
	swept         *obs.Counter
	latency       *obs.Histogram
	resultCounts  *obs.Histogram
	kRequested    *obs.Histogram
	nodesVisited  *obs.Counter
	leavesVisited *obs.Counter
	leavesPruned  *obs.Counter
	distanceEvals *obs.Counter
	batchedEvals  *obs.Counter
	abandonEvals  *obs.Counter
	skippedEvals  *obs.Counter
	pruneRatio    *obs.Histogram
	adds          *obs.Counter
	items         *obs.Gauge
	resplits      *obs.Counter
	resplitNS     *obs.Counter
}

// sourceCounters are the registry series metric resolution and the
// panic barrier move (see resolveMetric and trapSearch). A Database's
// registry and a shard set's carry them under the same names, so a
// session counts alike on either.
type sourceCounters struct {
	notReady    *obs.Counter
	dimMismatch *obs.Counter
	degraded    *obs.Counter
	errors      *obs.Counter
}

func newSourceCounters(reg *obs.Registry) sourceCounters {
	return sourceCounters{
		notReady:    reg.Counter("search.not_ready"),
		dimMismatch: reg.Counter("search.dimension_mismatch"),
		degraded:    reg.Counter("search.degraded"),
		errors:      reg.Counter("search.errors"),
	}
}

func newDBMetrics() *dbMetrics {
	reg := obs.NewRegistry()
	return &dbMetrics{
		reg:           reg,
		source:        newSourceCounters(reg),
		searches:      reg.Counter("search.total"),
		partial:       reg.Counter("search.partial"),
		swept:         reg.Counter("search.swept"),
		latency:       reg.Histogram("search.latency_seconds", obs.LatencyBuckets()),
		resultCounts:  reg.Histogram("search.results", obs.SizeBuckets()),
		kRequested:    reg.Histogram("search.k", obs.SizeBuckets()),
		nodesVisited:  reg.Counter("index.nodes_visited"),
		leavesVisited: reg.Counter("index.leaves_visited"),
		leavesPruned:  reg.Counter("index.leaves_pruned"),
		distanceEvals: reg.Counter("index.distance_evals"),
		batchedEvals:  reg.Counter("index.batched_evals"),
		abandonEvals:  reg.Counter("index.abandoned_evals"),
		skippedEvals:  reg.Counter("index.skipped_evals"),
		pruneRatio:    reg.Histogram("index.prune_ratio", obs.RatioBuckets()),
		adds:          reg.Counter("db.adds"),
		items:         reg.Gauge("db.items"),
		resplits:      reg.Counter("index.resplits"),
		resplitNS:     reg.Counter("search.resplit_ns"),
	}
}

// observeSearch records one finished retrieval. It is allocation-free:
// every write is an atomic add on a pre-resolved handle.
func (m *dbMetrics) observeSearch(elapsed time.Duration, k, results int, stats index.SearchStats, degraded, partial bool) {
	m.searches.Inc()
	if degraded {
		m.source.degraded.Inc()
	}
	m.swept.Add(int64(stats.Swept))
	m.latency.Observe(elapsed.Seconds())
	m.kRequested.Observe(float64(k))
	m.resultCounts.Observe(float64(results))
	m.nodesVisited.Add(int64(stats.NodesVisited))
	m.leavesVisited.Add(int64(stats.LeavesVisited))
	m.leavesPruned.Add(int64(stats.LeavesPruned()))
	m.distanceEvals.Add(int64(stats.DistanceEvals))
	m.batchedEvals.Add(int64(stats.BatchedEvals))
	m.abandonEvals.Add(int64(stats.AbandonedEvals))
	m.skippedEvals.Add(int64(stats.SkippedEvals))
	if stats.LeavesTotal > 0 {
		m.pruneRatio.Observe(stats.PruneRatio())
	}
	if partial {
		m.partial.Inc()
	}
}

// observeInsert records the index-maintenance side of one insert: the
// leaf re-splits it ran (count + write-lock nanoseconds under
// "search.resplit_ns", since that time is what searches queue behind).
func (m *dbMetrics) observeInsert(st index.InsertStats) {
	if st.Resplits > 0 {
		m.resplits.Add(int64(st.Resplits))
		m.resplitNS.Add(st.ResplitTime.Nanoseconds())
	}
}

// Metrics returns a point-in-time snapshot of the database's metrics
// registry: search totals and outcome counters ("search.total",
// "search.partial", "search.degraded", "search.swept" — tree searches
// that found the tree not pruning and finished as a sweep of the store,
// which then report every leaf visited — ...), latency and size
// histograms ("search.latency_seconds", "search.results", "search.k"),
// index-work counters ("index.leaves_visited", "index.leaves_pruned",
// "index.distance_evals", "index.batched_evals",
// "index.abandoned_evals", "index.skipped_evals" — stored vectors a
// sweep passed over —, "index.prune_ratio"), insert-maintenance
// counters ("index.resplits" — leaves an insert overflowed and
// re-split —, "search.resplit_ns"), "search.errors" (trapped search
// panics) and, once a session exists, "feedback.rounds" /
// "feedback.points" and "session.pages_reused" (retrievals a session
// served from its page memo, see Session). Safe to call at any time,
// including while searches are running.
func (db *Database) Metrics() MetricsSnapshot { return db.met.reg.Snapshot() }

// ServeDebug starts an HTTP debug server for this database's metrics on
// addr (e.g. "localhost:6060"; ":0" picks a free port — read it back
// from DebugServer.Addr). Endpoints: /debug/vars (expvar-style JSON),
// /metrics (Prometheus text format) and /debug/pprof/ (the standard
// pprof handlers). The caller owns the returned server and must Close
// it; Close waits for the serve goroutine, so none is leaked.
func (db *Database) ServeDebug(addr string) (*DebugServer, error) {
	return obs.ServeDebug(addr, db.met.reg)
}

// Registry returns the database's live metrics registry. Handles
// resolved from it stay valid for the database's lifetime; callers that
// serve it (or merge it with their own registries onto one ops
// endpoint) observe the same counters Metrics snapshots.
func (db *Database) Registry() *Registry { return db.met.reg }

// sessionMetrics is the per-session slice of the instrumentation: the
// same allocation-free primitives, owned by one Session, plus handles
// on the series the session moves in its backend's registry. The
// feedback series are registered by the first session, so the shard
// databases under a set — which never own a session — export none.
type sessionMetrics struct {
	backend   sourceCounters
	beRounds  *obs.Counter
	bePoints  *obs.Counter
	beReused  *obs.Counter
	searches  obs.Counter
	partial   obs.Counter
	degraded  obs.Counter
	rounds    obs.Counter
	points    obs.Counter
	leavesVis obs.Counter
	leavesPrn obs.Counter
	distEvals obs.Counter
	latency   *obs.Histogram
	prune     *obs.Histogram
}

func newSessionMetrics(reg *obs.Registry) *sessionMetrics {
	return &sessionMetrics{
		backend:  newSourceCounters(reg),
		beRounds: reg.Counter("feedback.rounds"),
		bePoints: reg.Counter("feedback.points"),
		beReused: reg.Counter("session.pages_reused"),
		latency:  obs.NewHistogram(obs.LatencyBuckets()),
		prune:    obs.NewHistogram(obs.RatioBuckets()),
	}
}

// observeReuse records one session retrieval served from the page
// memo: a retrieval, but no search, no metric build and no latency.
func (m *sessionMetrics) observeReuse() {
	m.searches.Inc()
	m.beReused.Inc()
}

// observeRetrieval records one session retrieval that searched
// (allocation-free).
func (m *sessionMetrics) observeRetrieval(elapsed time.Duration, stats index.SearchStats, degraded, partial bool) {
	m.searches.Inc()
	if degraded {
		m.degraded.Inc()
		m.backend.degraded.Inc()
	}
	m.latency.Observe(elapsed.Seconds())
	m.leavesVis.Add(int64(stats.LeavesVisited))
	m.leavesPrn.Add(int64(stats.LeavesPruned()))
	m.distEvals.Add(int64(stats.DistanceEvals))
	if stats.LeavesTotal > 0 {
		m.prune.Observe(stats.PruneRatio())
	}
	if partial {
		m.partial.Inc()
	}
}

// Stats returns the session's observability snapshot: cumulative
// counters, the search-latency and leaf-prune-ratio histograms, and the
// index work of the most recent retrieval. Safe to call concurrently
// with searches and feedback.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	last := s.lastStats
	s.mu.Unlock()
	return SessionStats{
		Searches:             s.met.searches.Value(),
		PartialSearches:      s.met.partial.Value(),
		DegradedSearches:     s.met.degraded.Value(),
		FeedbackRounds:       s.met.rounds.Value(),
		FeedbackPoints:       s.met.points.Value(),
		QueryPoints:          s.query.NumQueryPoints(),
		LastSearch:           last,
		SearchLatencySeconds: s.met.latency.Snapshot(),
		PruneRatio:           s.met.prune.Snapshot(),
		LeavesVisited:        s.met.leavesVis.Value(),
		LeavesPruned:         s.met.leavesPrn.Value(),
		DistanceEvals:        s.met.distEvals.Value(),
	}
}
