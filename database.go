package qcluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// Result is one retrieval answer: the database id of an item and its
// distance under the query's current distance function.
type Result = index.Result

// Database is an indexed feature-vector collection. Searches run on a
// hybrid-tree-style index with best-first pruning; arbitrary query
// distance functions (single-point, disjunctive multipoint) are
// supported through lower-boundable metrics.
//
// A Database is safe for concurrent use: Add takes a write lock while
// searches share a read lock.
type Database struct {
	mu    sync.RWMutex
	store *index.Store
	tree  *index.HybridTree
	met   *dbMetrics // always non-nil; see Metrics and ServeDebug
}

// IndexOptions tunes the database's search index. The zero value is the
// default configuration. The rest is fixed: the paper's 4 KB index node
// (leaf capacity 4096 / (8 × dim)), and an insert re-splits every leaf
// it overflows before it returns.
type IndexOptions struct {
	// SearchParallelism is the worker count of a swept search — one the
	// tree cannot prune, which finishes as a scan of the store in storage
	// order: 0 uses GOMAXPROCS, 1 scans on the calling goroutine. The
	// tree traversal itself, and the scan of a small collection (below
	// 8192 items), are sequential regardless.
	SearchParallelism int
}

// NewDatabase indexes the given vectors with default index options. All
// vectors must share one dimensionality and be finite. The vectors are
// copied into one contiguous block; the input slices are not retained.
func NewDatabase(vectors [][]float64) (*Database, error) {
	return NewDatabaseWithOptions(vectors, IndexOptions{})
}

// NewDatabaseWithOptions is NewDatabase with explicit index tuning.
func NewDatabaseWithOptions(vectors [][]float64, opt IndexOptions) (_ *Database, err error) {
	defer barrier("NewDatabase", &err)
	vecs := make([]linalg.Vector, len(vectors))
	for i, v := range vectors {
		vecs[i] = linalg.Vector(v)
	}
	store, err := index.NewStore(vecs)
	if err != nil {
		return nil, fmt.Errorf("qcluster: %w", err)
	}
	return newDatabaseFromStore(store, opt), nil
}

// newDatabaseFromStore finishes construction over a populated store:
// the hybrid tree and the metrics.
func newDatabaseFromStore(store *index.Store, opt IndexOptions) *Database {
	db := &Database{
		store: store,
		tree:  index.NewHybridTree(store, index.TreeOptions{Parallelism: opt.SearchParallelism}),
		met:   newDBMetrics(),
	}
	db.met.items.Set(float64(store.Len()))
	return db
}

// Add appends a new item to the database and the index, returning its
// id. It is safe to call concurrently with Search and other Add calls:
// the database serializes the mutation internally against all readers.
func (db *Database) Add(vector []float64) (id int, err error) {
	defer barrier("Add", &err)
	ids, err := db.addBatch(context.Background(), [][]float64{vector})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatch appends a batch of items under one write lock, returning
// their ids in input order. Compared with looping over Add, a batch
// takes the store lock once, so readers see either none or all of it.
// The whole batch is validated up front: on error (dimension mismatch,
// non-finite component) nothing is applied. An empty batch is a no-op.
func (db *Database) AddBatch(vectors [][]float64) (ids []int, err error) {
	defer barrier("AddBatch", &err)
	return db.addBatch(context.Background(), vectors)
}

func (db *Database) addBatch(ctx context.Context, vectors [][]float64) (ids []int, err error) {
	if len(vectors) == 0 {
		return nil, nil
	}
	if err := db.ValidateBatch(vectors); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ids = make([]int, len(vectors))
	for i, v := range vectors {
		id, aerr := db.store.Append(linalg.Vector(v))
		if aerr != nil {
			// Unreachable after the pre-validation above; a failure here
			// would leave a partial batch, so surface it loudly.
			panic(fmt.Sprintf("qcluster: batch append %d failed after validation: %v", i, aerr))
		}
		ids[i] = id
	}
	resplitStart := time.Now()
	ist := db.tree.InsertBatch(ids)
	db.met.observeInsert(ist)
	if ist.ResplitTime > 0 {
		// The re-split work becomes its own child span on the request
		// trace, so an ingest stalled behind index maintenance is
		// visible per request, not only in the aggregate counter.
		obs.ProfileFromContext(ctx).StageAt(obs.StageResplit, resplitStart, ist.ResplitTime)
	}
	db.met.adds.Add(int64(len(ids)))
	db.met.items.Set(float64(db.store.Len()))
	return ids, nil
}

// AddBatchContext is AddBatch with an up-front cancellation check — the
// form the serving layer's ingest path calls. The batch itself is not
// interruptible (it holds the write lock briefly); on a DurableDatabase
// the context also bounds the wait for the group-commit fsync. The leaf
// re-splits the batch runs are attributed to the request's cost profile
// as a "resplit" stage.
func (db *Database) AddBatchContext(ctx context.Context, vectors [][]float64) (_ []int, err error) {
	defer barrier("AddBatchContext", &err)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("qcluster: add not started: %w", cerr)
	}
	return db.addBatch(ctx, vectors)
}

// ValidateBatch is the ingest rule, checked by every write path before
// it changes anything: each vector has the collection's dimension and
// finite components. DurableDatabase checks it before a batch reaches
// the log and a shard set before its id map moves, so a batch it
// accepts always applies.
func (db *Database) ValidateBatch(vectors [][]float64) error {
	dim := db.Dim()
	for i, v := range vectors {
		if len(v) != dim {
			return fmt.Errorf("qcluster: batch vector %d has dimension %d, database has %d: %w",
				i, len(v), dim, ErrDimensionMismatch)
		}
		for d, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("qcluster: batch vector %d component %d is not finite (%v)", i, d, x)
			}
		}
	}
	return nil
}

// Len returns the number of items.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Len()
}

// Dim returns the feature dimensionality.
func (db *Database) Dim() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Dim()
}

// Vector returns item id's feature vector (read-only). An out-of-range
// id returns nil — it used to panic, which let a single bad request
// crash a serving process; use VectorOK to distinguish a missing id
// from a (never-valid) nil vector.
func (db *Database) Vector(id int) []float64 {
	v, _ := db.VectorOK(id)
	return v
}

// VectorOK returns item id's feature vector (read-only) and whether the
// id is in range.
func (db *Database) VectorOK(id int) ([]float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= db.store.Len() {
		return nil, false
	}
	return db.store.Vector(id), true
}

// searchRequest is one retrieval as the search pipeline sees it. Every
// public entry point — stateless searches, session rounds, the per-shard
// legs of a scatter-gather query — builds one and hands it to execute;
// the entry points differ in nothing but these fields.
type searchRequest struct {
	op string // the public entry point, reported as InternalError.Op
	// metric is the distance to rank by when the caller already built it
	// (session rounds, shard legs); nil resolves query/example instead.
	metric  distance.Metric
	query   *Query
	example linalg.Vector
	k       int
	bound   *index.SharedBound // cross-shard k-th-best bound
	// leg marks one shard's leg of a scatter-gather query: the gather
	// attributes the request's search stage and per-shard work itself,
	// and merges whatever the legs of an interrupted query had found.
	leg bool
	// trapped marks a Database's own session round: Session.retrieve
	// holds the panic barrier and counts "search.errors", so execute
	// sets none.
	trapped bool
}

// execute is the one pipeline every retrieval on this database runs
// through: panic barrier (a session round's is the session's),
// cancellation check, metric resolution, timed dispatch, metrics, cost
// profile and the partial-results error — each exactly once. It returns
// the dispatch's wall-clock, which a session reports as its latency.
func (db *Database) execute(ctx context.Context, req searchRequest) (_ []Result, stats index.SearchStats, elapsed time.Duration, err error) {
	if !req.trapped {
		defer trapSearch(req.op, db.met.source.errors, &err)
	}
	if cerr := ctx.Err(); cerr != nil {
		if req.leg {
			return nil, stats, 0, wrapInterrupt(cerr, 0)
		}
		return nil, stats, 0, fmt.Errorf("qcluster: search not started: %w", cerr)
	}
	// A caller that built the metric itself (a session) counts its
	// degradation itself; health stays zero here.
	var health Health
	if req.metric == nil {
		if req.metric, health, err = resolveMetric(req.query, req.example, db.Dim(), &db.met.source); err != nil {
			return nil, stats, 0, err
		}
	}
	start := time.Now()
	res, stats, cerr := db.searchTree(ctx, req)
	elapsed = time.Since(start)
	db.met.observeSearch(elapsed, req.k, len(res), stats, health.Degraded(), cerr != nil)
	if !req.leg {
		obs.ProfileFromContext(ctx).AddSearch(start, elapsed, stats)
	}
	return res, stats, elapsed, wrapInterrupt(cerr, len(res))
}

// searchTree is the one k-NN call execute funnels every search through:
// the tree's search under the read lock, with the request's cross-shard
// bound.
func (db *Database) searchTree(ctx context.Context, req searchRequest) ([]index.Result, index.SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tree.KNNSharedContext(ctx, req.metric, req.k, req.bound)
}

// trapSearch is the search panic barrier: barrier, plus "search.errors"
// on the collection's registry. execute sets it for every search but a
// session round, whose retrieve sets it over the whole round.
func trapSearch(op string, searchErrors *obs.Counter, err *error) {
	if r := recover(); r != nil {
		searchErrors.Inc()
		*err = &InternalError{Op: op, Value: r}
	}
}

// resolveMetric is the one place a retrieval's distance function is
// chosen: the query model's aggregate disjunctive distance once it has
// absorbed feedback (Eq. 5), the plain Euclidean example query before.
// The returned Health is that of the built aggregate — zero for the
// example query. Refusals are counted on c, the backend's registry; a
// degraded aggregate is counted by the caller once its search has run,
// so a search that never starts is a degraded search nowhere.
func resolveMetric(q *Query, example linalg.Vector, dim int, c *sourceCounters) (distance.Metric, Health, error) {
	if q != nil {
		if q.Ready() {
			m := q.metric()
			return m, q.Health(), nil
		}
		if example == nil { // Search(q): no example to fall back on
			c.notReady.Inc()
			return nil, Health{}, fmt.Errorf("qcluster: %w", ErrNotReady)
		}
	}
	if len(example) != dim {
		c.dimMismatch.Inc()
		return nil, Health{}, fmt.Errorf("qcluster: example has dimension %d, database has %d: %w",
			len(example), dim, ErrDimensionMismatch)
	}
	return &distance.Euclidean{Center: example}, Health{}, nil
}

// SearchByExample answers a plain k-NN query around an example vector —
// the initial retrieval of a feedback session. Any failure — a
// mismatched example dimensionality, a trapped internal panic — yields
// nil (use SearchByExampleContext for the typed error).
func (db *Database) SearchByExample(example []float64, k int) []Result {
	res, _ := db.SearchByExampleContext(context.Background(), example, k)
	return res
}

// SearchByExampleContext is SearchByExample with cooperative
// cancellation. An already-expired context returns promptly with its
// (wrapped) error and no results; a context that expires mid-search
// returns the best-effort results found so far along with an error
// matching both ErrPartialResults and the context error. A mismatched
// example dimensionality returns ErrDimensionMismatch.
func (db *Database) SearchByExampleContext(ctx context.Context, example []float64, k int) ([]Result, error) {
	res, _, _, err := db.execute(ctx, searchRequest{op: "SearchByExampleContext", example: example, k: k})
	return res, err
}

// Search answers a k-NN query under the query model's aggregate
// disjunctive distance. A query that has absorbed no feedback yet (not
// Ready) has no distance function to search with; Search returns nil
// for it rather than panicking — use SearchContext for the typed
// ErrNotReady, or SearchByExample for the initial retrieval.
func (db *Database) Search(q *Query, k int) []Result {
	res, _ := db.SearchContext(context.Background(), q, k)
	return res
}

// SearchContext is Search with cooperative cancellation (see
// SearchByExampleContext for the context semantics). A query without
// feedback returns ErrNotReady instead of panicking, and covariance
// degradations encountered while building the metric are recorded on
// the query's Health.
func (db *Database) SearchContext(ctx context.Context, q *Query, k int) ([]Result, error) {
	res, _, _, err := db.execute(ctx, searchRequest{op: "SearchContext", query: q, k: k})
	return res, err
}

// SessionSearcher is where a Session retrieves — the seam between the
// one feedback loop and the two places it can search: a single Database,
// or a shard set's scatter-gather (internal/shard). Both implement it
// themselves; a session holds nothing of theirs but the pointer.
type SessionSearcher interface {
	// Dim is the collection's feature dimensionality.
	Dim() int
	// Registry is the backend registry the session counts its feedback
	// rounds, degraded metrics, dimension mismatches, trapped panics and
	// reused pages on.
	Registry() *Registry
	// CollectionVersion is how many vectors a search started now sees at
	// least: the store length a search reads under its lock, summed over
	// a set's shards. The collection only grows, so two equal readings
	// bracket no insert a search could see; a Session keys its page memo
	// on the reading it takes before the search.
	CollectionVersion() int
	// SearchMetric answers one retrieval under m on the backend the
	// collection was built with, and reports how long the search took —
	// the session's latency. An interrupted search returns best-effort
	// results with ErrPartialResults. A session calls it inside its own
	// panic barrier. Safe for concurrent use.
	SearchMetric(ctx context.Context, m distance.Metric, k int) ([]Result, index.SearchStats, time.Duration, error)
}

// CollectionVersion makes *Database a SessionSearcher: the store length
// under the read lock every search takes.
func (db *Database) CollectionVersion() int { return db.Len() }

// SearchMetric makes *Database a SessionSearcher: one session round under
// the metric the session built, behind execute's panic barrier.
func (db *Database) SearchMetric(ctx context.Context, m distance.Metric, k int) ([]Result, index.SearchStats, time.Duration, error) {
	return db.execute(ctx, searchRequest{op: "ResultsContext", metric: m, k: k})
}

// sessionRounds is the SessionSearcher a Database's own sessions search
// through: Session.retrieve's barrier covers the whole round, so execute
// sets none of its own. The exported SearchMetric, open to any caller,
// keeps execute's.
type sessionRounds struct{ *Database }

func (r sessionRounds) SearchMetric(ctx context.Context, m distance.Metric, k int) ([]Result, index.SearchStats, time.Duration, error) {
	return r.execute(ctx, searchRequest{op: "ResultsContext", metric: m, k: k, trapped: true})
}

// Session is the end-to-end feedback loop over one collection: retrieve,
// mark, refine — Algorithm 1 behind a two-method API, and its only
// implementation: a sharded session is this type over another
// SessionSearcher. A Session is a query model plus the last page it
// served: every search is an independent search under the model's
// current metric, and a retrieval whose key — the model version (its
// absorbed-round count, which moves exactly when Feedback absorbs a
// point), k and the collection version — matches the last complete page's
// returns a copy of that page without building the metric or searching.
// A round that marks only already-seen points leaves the model, and so
// the page, as it was. It is safe for concurrent use, and an Add between
// rounds changes nothing but the page.
type Session struct {
	mu        sync.Mutex // guards lastStats and memo
	on        SessionSearcher
	dim       int // on.Dim(), fixed for the collection's lifetime
	query     *Query
	example   linalg.Vector
	met       *sessionMetrics   // always non-nil; see Stats
	lastStats index.SearchStats // index work of the most recent search
	memo      pageMemo          // the last complete page and its key
	sink      Sink              // trace sink from Options (nil = disabled)
}

// pageKey is what a session page is a function of: the query model's
// version, the page size and the collection version.
type pageKey struct{ model, k, collection int }

// pageMemo is a session's last page that no error cut short; page is nil
// until one is stored.
type pageMemo struct {
	key  pageKey
	page []Result
}

// NewSession starts a retrieval session from an example feature vector.
// The example must match the database's dimensionality; a mismatched
// example makes every pre-feedback retrieval return nil results
// (Results) or ErrDimensionMismatch (ResultsContext) instead of
// panicking inside the index.
func (db *Database) NewSession(example []float64, opt Options) *Session {
	return NewSessionOver(sessionRounds{db}, example, opt)
}

// NewSessionOver starts a retrieval session that searches through on —
// how Database.NewSession and the sharded tier build theirs.
func NewSessionOver(on SessionSearcher, example []float64, opt Options) *Session {
	return &Session{
		on:      on,
		dim:     on.Dim(),
		query:   NewQuery(opt),
		example: linalg.Vector(example).Clone(),
		met:     newSessionMetrics(on.Registry()),
		sink:    opt.Sink,
	}
}

// Results retrieves the current top-k. Before any feedback this is the
// plain example query; afterwards it is the refined multipoint query.
// Any failure yields nil (use ResultsContext for the typed error).
func (s *Session) Results(k int) []Result {
	res, _ := s.ResultsContext(context.Background(), k)
	return res
}

// ResultsContext is Results with cooperative cancellation (see
// SearchByExampleContext for the context semantics).
func (s *Session) ResultsContext(ctx context.Context, k int) ([]Result, error) {
	return s.retrieve(ctx, k)
}

// retrieve is the session's one retrieval: serve the memo when its key
// matches, else resolve the current metric, search where the session
// searches, record, and memoize a page no error cut short. Retrievals
// that never ran (cancelled up front, trapped panic) are not counted.
// The keys are read before the metric build and the search, so a page
// is never filed under a state newer than the one it was computed from.
func (s *Session) retrieve(ctx context.Context, k int) (_ []Result, err error) {
	defer trapSearch("ResultsContext", s.met.backend.errors, &err)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("qcluster: search not started: %w", cerr)
	}
	key := pageKey{model: s.query.Rounds(), k: k, collection: s.on.CollectionVersion()}
	if page, ok := s.reuse(key); ok {
		s.met.observeReuse()
		s.emitDone(key, page, 0, index.SearchStats{}, false, true)
		return page, nil
	}
	m, health, err := resolveMetric(s.query, s.example, s.dim, &s.met.backend)
	if err != nil {
		return nil, err
	}
	res, stats, elapsed, err := s.on.SearchMetric(ctx, m, k)
	partial := errors.Is(err, ErrPartialResults)
	if err != nil && !partial {
		return nil, err
	}
	s.mu.Lock()
	s.lastStats = stats
	if err == nil {
		s.memo = pageMemo{key: key, page: res}
		res = slices.Clone(res)
	}
	s.mu.Unlock()
	s.met.observeRetrieval(elapsed, stats, health.Degraded(), partial)
	s.emitDone(key, res, elapsed, stats, partial, false)
	return res, err
}

// reuse returns a copy of the memoized page when its key is key.
func (s *Session) reuse(key pageKey) ([]Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memo.page == nil || s.memo.key != key {
		return nil, false
	}
	return slices.Clone(s.memo.page), true
}

// emitDone sends the retrieval's "search.done" event to the sink, if any.
func (s *Session) emitDone(key pageKey, res []Result, elapsed time.Duration, stats index.SearchStats, partial, reused bool) {
	if s.sink == nil {
		return
	}
	obs.EmitEvent(s.sink, "search.done",
		obs.F("k", key.k), obs.F("results", len(res)),
		obs.F("refined", key.model > 0),
		obs.F("latency_ms", elapsed.Seconds()*1e3),
		obs.F("leaves_visited", stats.LeavesVisited),
		obs.F("skipped_evals", stats.SkippedEvals),
		obs.F("prune_ratio", stats.PruneRatio()),
		obs.F("partial", partial),
		obs.F("reused", reused))
}

// MarkRelevant feeds the user's relevance judgement back into the query.
// It returns an error — absorbing nothing — when a positively scored
// point's dimensionality does not match the collection's or its vector
// has non-finite (NaN or ±Inf) components, which would silently corrupt
// the cluster means.
func (s *Session) MarkRelevant(points []Point) (err error) {
	defer barrier("MarkRelevant", &err)
	marked := 0
	for i, p := range points {
		if p.Score <= 0 {
			continue
		}
		if len(p.Vec) != s.dim {
			return fmt.Errorf("qcluster: point %d has dimension %d, database has %d",
				i, len(p.Vec), s.dim)
		}
		marked++
	}
	rounds := s.query.Rounds()
	if err := s.query.Feedback(points); err != nil {
		return err
	}
	// Count the round only when the model absorbed something new (the
	// model skips rounds of already-seen or non-positive points).
	if s.query.Rounds() > rounds {
		s.met.rounds.Inc()
		s.met.beRounds.Inc()
		s.met.points.Add(int64(marked))
		s.met.bePoints.Add(int64(marked))
	}
	return nil
}

// Health returns the session query's health status — the degradation
// trace of the most recent metric construction (see Health).
func (s *Session) Health() Health { return s.query.Health() }

// Query exposes the underlying query model for inspection.
func (s *Session) Query() *Query { return s.query }

// checkFinite rejects NaN and ±Inf components in feedback vectors.
func checkFinite(i int, v []float64) error {
	for d, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("qcluster: feedback point %d component %d is not finite (%v)", i, d, x)
		}
	}
	return nil
}
