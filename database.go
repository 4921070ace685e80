package qcluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/ann"
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

	// backend selects the k-NN execution path; annIdx is non-nil exactly
	// when it is BackendANN. The tree is always built regardless — it is
	// the substrate of durability snapshots.
	backend IndexBackend
	annIdx  *ann.Index
}

// IndexOptions tunes the database's search index. The zero value is the
// default configuration. The rest is fixed: the paper's 4 KB index node
// (leaf capacity 4096 / (8 × dim)) and at most 8 leaf re-splits per
// insert batch (index.TreeOptions' defaults).
type IndexOptions struct {
	// SearchParallelism is the worker count of a swept search — one the
	// tree cannot prune, which finishes as a scan of the store in storage
	// order: 0 uses GOMAXPROCS, 1 scans on the calling goroutine. The
	// tree traversal itself, and the scan of a small collection (below
	// 8192 items), are sequential regardless.
	SearchParallelism int
	// Backend selects the k-NN execution path, fixed for the database's
	// lifetime: BackendTree (default, exact) or BackendANN (graph
	// navigation + exact refinement, recall below 1).
	Backend IndexBackend
	// ANN tunes the BackendANN graph (ignored by the other backends).
	ANN ANNOptions
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
	if err := opt.Backend.Validate(); err != nil {
		return nil, err
	}
	vecs := make([]linalg.Vector, len(vectors))
	for i, v := range vectors {
		vecs[i] = linalg.Vector(v)
	}
	store, err := index.NewStore(vecs)
	if err != nil {
		return nil, fmt.Errorf("qcluster: %w", err)
	}
	return newDatabaseFromStore(store, opt)
}

// newDatabaseFromStore finishes construction over a populated store:
// the hybrid tree, the selected backend's auxiliary index, metrics.
func newDatabaseFromStore(store *index.Store, opt IndexOptions) (*Database, error) {
	backend, err := opt.Backend.normalize()
	if err != nil {
		return nil, err
	}
	db := &Database{
		store:   store,
		tree:    index.NewHybridTree(store, index.TreeOptions{Parallelism: opt.SearchParallelism}),
		met:     newDBMetrics(),
		backend: backend,
	}
	if err := db.buildBackend(opt); err != nil {
		return nil, err
	}
	db.met.items.Set(float64(store.Len()))
	return db, nil
}

// Add appends a new item to the database and the index, returning its
// id. It is safe to call concurrently with Search and other Add calls:
// the database serializes the mutation internally against all readers.
func (db *Database) Add(vector []float64) (id int, err error) {
	defer barrier("Add", &err)
	if err := db.ValidateBatch([][]float64{vector}); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	id, err = db.store.Append(linalg.Vector(vector))
	if err != nil {
		return 0, fmt.Errorf("qcluster: %w", err)
	}
	ist := db.tree.Insert(id)
	if err := db.syncBackendLocked([]int{id}); err != nil {
		// Unreachable after ValidateBatch; a failure here would leave the
		// graph behind the store, so surface it loudly.
		panic(err)
	}
	db.met.observeInsert(ist)
	db.met.adds.Inc()
	db.met.items.Set(float64(db.store.Len()))
	return id, nil
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
	if err := db.syncBackendLocked(ids); err != nil {
		panic(err) // unreachable after ValidateBatch, see Add
	}
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
// the context also bounds the wait for the group-commit fsync. Deferred
// leaf re-splits the batch drains are attributed to the request's cost
// profile as a "resplit" stage.
func (db *Database) AddBatchContext(ctx context.Context, vectors [][]float64) (_ []int, err error) {
	defer barrier("AddBatchContext", &err)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("qcluster: add not started: %w", cerr)
	}
	return db.addBatch(ctx, vectors)
}

// ValidateBatch is the ingest rule, checked by every write path before
// it changes anything: each vector has the collection's dimension and
// finite components, and on the ANN backend every component fits a
// float32 (the graph mirror cannot hold it otherwise). DurableDatabase
// checks it before a batch reaches the log and a shard set before its
// id map moves, so a batch it accepts always applies.
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
			if db.backend == BackendANN {
				if _, err := ann.Quantize(x); err != nil {
					return fmt.Errorf("qcluster: vector %d component %d: %w", i, d, err)
				}
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
	bound   *index.SharedBound // cross-shard k-th-best bound (tree backend only)
	// leg marks one shard's leg of a scatter-gather query: the gather
	// attributes the request's search stage and per-shard work itself,
	// and merges whatever the legs of an interrupted query had found.
	leg bool
}

// execute is the one pipeline every retrieval on this database runs
// through: panic barrier, cancellation check, metric resolution, timed
// dispatch, metrics, cost profile and the partial-results error — each
// exactly once.
func (db *Database) execute(ctx context.Context, req searchRequest) (_ []Result, stats index.SearchStats, err error) {
	defer db.trapSearch(req.op, &err)
	if cerr := ctx.Err(); cerr != nil {
		if req.leg {
			return nil, stats, wrapInterrupt(cerr, 0)
		}
		return nil, stats, fmt.Errorf("qcluster: search not started: %w", cerr)
	}
	// A caller that built the metric itself (a session) counts its
	// degradation itself; health stays zero here.
	var health Health
	if req.metric == nil {
		if req.metric, health, err = resolveMetric(req.query, req.example, db.Dim(), &db.met.source); err != nil {
			return nil, stats, err
		}
	}
	start := time.Now()
	res, stats, cerr := db.knnBackend(ctx, req)
	elapsed := time.Since(start)
	db.met.observeSearch(elapsed, req.k, len(res), stats, health.Degraded(), cerr != nil)
	if !req.leg {
		obs.ProfileFromContext(ctx).AddSearch(start, elapsed, stats)
	}
	return res, stats, wrapInterrupt(cerr, len(res))
}

// trapSearch is execute's panic barrier: barrier, plus "search.errors" —
// execute is the one place that sees every search.
func (db *Database) trapSearch(op string, err *error) {
	if r := recover(); r != nil {
		db.met.searchErrors.Inc()
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
	res, _, err := db.execute(ctx, searchRequest{op: "SearchByExampleContext", example: example, k: k})
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
	res, _, err := db.execute(ctx, searchRequest{op: "SearchContext", query: q, k: k})
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
	// rounds, degraded metrics and dimension mismatches on.
	Registry() *Registry
	// SearchMetric answers one retrieval under m on the backend the
	// collection was built with. An interrupted search returns
	// best-effort results with ErrPartialResults. Safe for concurrent use.
	SearchMetric(ctx context.Context, m distance.Metric, k int) ([]Result, index.SearchStats, error)
}

// SearchMetric makes *Database a SessionSearcher: one session round under
// the metric the session built.
func (db *Database) SearchMetric(ctx context.Context, m distance.Metric, k int) ([]Result, index.SearchStats, error) {
	return db.execute(ctx, searchRequest{op: "ResultsContext", metric: m, k: k})
}

// Session is the end-to-end feedback loop over one collection: retrieve,
// mark, refine — Algorithm 1 behind a two-method API, and its only
// implementation: a sharded session is this type over another
// SessionSearcher. A Session is a query model and nothing else: every
// retrieval is an independent search under the model's current metric,
// so it is safe for concurrent use and an Add between rounds changes
// nothing but the page.
type Session struct {
	mu        sync.Mutex // guards lastStats
	on        SessionSearcher
	dim       int // on.Dim(), fixed for the collection's lifetime
	query     *Query
	example   linalg.Vector
	met       *sessionMetrics   // always non-nil; see Stats
	lastStats index.SearchStats // index work of the most recent search
	sink      Sink              // trace sink from Options (nil = disabled)
}

// NewSession starts a retrieval session from an example feature vector.
// The example must match the database's dimensionality; a mismatched
// example makes every pre-feedback retrieval return nil results
// (Results) or ErrDimensionMismatch (ResultsContext) instead of
// panicking inside the index.
func (db *Database) NewSession(example []float64, opt Options) *Session {
	return NewSessionOver(db, example, opt)
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

// retrieve is the session's one retrieval: resolve the current metric,
// search where the session searches, record. Searches that never ran
// (cancelled up front, trapped panic) are not counted.
func (s *Session) retrieve(ctx context.Context, k int) (_ []Result, err error) {
	defer barrier("ResultsContext", &err)
	m, health, err := resolveMetric(s.query, s.example, s.dim, &s.met.backend)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, stats, err := s.on.SearchMetric(ctx, m, k)
	elapsed := time.Since(start) // before s.mu: another retrieval's lock hold is not this one's latency
	partial := errors.Is(err, ErrPartialResults)
	if err != nil && !partial {
		return nil, err
	}
	s.mu.Lock()
	s.lastStats = stats
	s.mu.Unlock()
	s.met.observeRetrieval(elapsed, stats, health.Degraded(), partial)
	if s.sink != nil {
		obs.EmitEvent(s.sink, "search.done",
			obs.F("k", k), obs.F("results", len(res)),
			obs.F("refined", health.Clusters > 0),
			obs.F("latency_ms", elapsed.Seconds()*1e3),
			obs.F("leaves_visited", stats.LeavesVisited),
			obs.F("prune_ratio", stats.PruneRatio()),
			obs.F("partial", partial))
	}
	return res, err
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
