package qcluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ann"
	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/plan"
)

// This file is the backend-selection layer: every Database carries one
// of three k-NN execution paths behind the same search API. The exact
// hybrid tree stays the default and the substrate of sessions'
// refinement caches; the VA-file trades tree traversal for a
// filter-and-refine scan (still exact); the ANN backend trades recall
// for latency — an HNSW-style graph over float32-quantized vectors
// proposes candidates, and exact full-precision refinement keeps every
// result list (and all downstream feedback math) bit-exact given the
// candidates.

// IndexBackend names a k-NN execution path.
type IndexBackend string

const (
	// BackendTree is the exact hybrid-tree best-first search (default).
	BackendTree IndexBackend = "tree"
	// BackendVAFile is the exact VA-file filter-and-refine scan.
	BackendVAFile IndexBackend = "vafile"
	// BackendANN is the approximate HNSW-graph search with exact
	// refinement of the candidate set.
	BackendANN IndexBackend = "ann"
)

// normalize maps the zero value to the default and rejects unknowns.
func (b IndexBackend) normalize() (IndexBackend, error) {
	switch b {
	case "", BackendTree:
		return BackendTree, nil
	case BackendVAFile, BackendANN:
		return b, nil
	}
	return "", fmt.Errorf("qcluster: unknown index backend %q (want tree, vafile or ann)", string(b))
}

// ANNOptions tunes the "ann" backend (ignored by the others). Zero
// values use the defaults (M=16, efConstruction=128, efSearch=64).
type ANNOptions struct {
	// M is the graph's maximum neighbor degree above layer 0.
	M int
	// EfConstruction is the insert-time candidate-beam width.
	EfConstruction int
	// EfSearch is the query-time beam width — the recall/latency knob.
	EfSearch int
	// Seed makes the level assignment (and so the whole graph, given
	// insertion order) deterministic.
	Seed int64
}

// IndexInfo describes the database's active search backend — the block
// qserve reports in /healthz and session-create responses.
type IndexInfo struct {
	// Backend is the execution path: "tree", "vafile" or "ann".
	Backend string `json:"backend"`
	// ANNM / ANNEfConstruction / ANNEfSearch echo the resolved graph
	// parameters (0 unless Backend is "ann").
	ANNM              int `json:"ann_m,omitempty"`
	ANNEfConstruction int `json:"ann_ef_construction,omitempty"`
	ANNEfSearch       int `json:"ann_ef_search,omitempty"`
}

// IndexInfo reports the active backend and its resolved parameters.
func (db *Database) IndexInfo() IndexInfo {
	info := IndexInfo{Backend: string(db.backend)}
	if db.annIdx != nil {
		opt := db.annIdx.Opt()
		info.ANNM = opt.M
		info.ANNEfConstruction = opt.EfConstruction
		info.ANNEfSearch = opt.EfSearch
	}
	return info
}

// buildBackend constructs the auxiliary index for non-tree backends
// (the tree itself is always built: it is the durability snapshot's
// substrate and the refinement-cache path).
func (db *Database) buildBackend(opt IndexOptions) error {
	switch db.backend {
	case BackendVAFile:
		db.va = index.NewVAFile(db.store, index.VAFileOptions{})
	case BackendANN:
		idx, err := ann.New(db.store, ann.Options{
			M:              opt.ANN.M,
			EfConstruction: opt.ANN.EfConstruction,
			EfSearch:       opt.ANN.EfSearch,
			Seed:           opt.ANN.Seed,
		})
		if err != nil {
			return fmt.Errorf("qcluster: building ann index: %w", err)
		}
		db.annIdx = idx
	}
	return nil
}

// syncBackendLocked brings the auxiliary indexes up to date with store
// rows appended by the current (write-locked) insert. Presence-based
// rather than backend-switched: the adaptive planner keeps auxiliary
// indexes alive as alternate routes even when they are not the
// configured backend, and a stale mirror would silently serve wrong
// results.
func (db *Database) syncBackendLocked(ids []int) error {
	if db.va != nil {
		db.va.Extend()
	}
	if db.annIdx != nil {
		if err := db.annIdx.InsertBatch(ids); err != nil {
			return fmt.Errorf("qcluster: ann insert: %w", err)
		}
	}
	return nil
}

// checkQuantizable pre-validates one vector against the ANN codec so a
// float32-overflowing component rejects the Add before anything is
// appended (the graph mirror cannot hold it, and a half-applied insert
// would strand the store and graph at different lengths).
func (db *Database) checkQuantizable(i int, v []float64) error {
	if db.backend != BackendANN {
		return nil
	}
	for d, x := range v {
		if _, err := ann.Quantize(x); err != nil {
			return fmt.Errorf("qcluster: vector %d component %d: %w", i, d, err)
		}
	}
	return nil
}

// knnBackend is the one dispatch point execute funnels every search
// through: it runs one k-NN on the active backend under the read lock.
// The session's refinement cache and the cross-shard shared bound only
// apply to the tree route — the VA-file has no leaf cache and the ANN
// path prunes nothing, so both are ignored there and the scatter-gather
// merge still works (each leg returns its full local top-k, a superset
// of what a bound would have kept).
//
// With an adaptive planner attached, the route (and the tree's worker
// count and batch size) is chosen per query from the rolling cost
// models; completed searches feed back into the chosen route's model.
// Exact routes are bit-identical to each other, so adaptive routing
// never changes exact results — only their cost. An approx request is
// never planned: it runs the ANN graph (execute checked it exists) at
// the caller's beam width, and still warms the planner's ANN model so
// AllowApprox-planned queries start from real measurements.
func (db *Database) knnBackend(ctx context.Context, req searchRequest) ([]index.Result, index.SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// The static decision: exactly the configured backend, no tuning.
	d := plan.Decision{Route: plan.Route(db.backend), EfSearch: req.ef}
	if db.planner == nil {
		return db.knnRouteLocked(ctx, d, req)
	}
	q := db.planQueryLocked(req)
	if !req.approx {
		d = db.planner.Plan(q)
	}
	start := time.Now()
	res, stats, err := db.knnRouteLocked(ctx, d, req)
	elapsed := time.Since(start)
	if err == nil {
		// Interrupted searches are not observed: their truncated latency
		// would teach the models that expensive queries are cheap.
		db.planner.Observe(d, q, stats, elapsed)
	}
	if !req.approx {
		stats.PlanRoute = string(d.Route)
		stats.PlanAdaptive = d.Adaptive
		stats.PlanPredictedSeconds = d.PredictedSeconds
		db.met.observePlan(d, elapsed)
	}
	return res, stats, err
}

// knnRouteLocked executes one decision — the planner's, or the static
// one (zero tuning, which the tree runs exactly as configured).
func (db *Database) knnRouteLocked(ctx context.Context, d plan.Decision, req searchRequest) ([]index.Result, index.SearchStats, error) {
	m, k := req.metric, req.k
	switch d.Route {
	case plan.RouteVAFile:
		return db.va.KNNContext(ctx, m, k)
	case plan.RouteANN:
		return db.annIdx.KNNEf(ctx, m, k, d.EfSearch)
	}
	tu := index.SearchTuning{Workers: d.Workers, BatchItems: d.BatchItems}
	if d.Workers > 1 {
		tu.MinItems = -1 // the planner already decided fan-out pays off
	}
	if req.cache != nil {
		return req.cache.KNNSharedTuned(ctx, m, k, req.bound, tu)
	}
	if tu == (index.SearchTuning{}) {
		return db.tree.KNNSharedContext(ctx, m, k, req.bound)
	}
	return db.tree.WithTuning(tu).KNNSharedContext(ctx, m, k, req.bound)
}

// planQueryLocked builds the planner's view of one query.
func (db *Database) planQueryLocked(req searchRequest) plan.Query {
	q := plan.Query{
		K:           req.k,
		M:           1,
		Scheme:      schemeOf(req.metric),
		N:           db.store.Len(),
		AllowApprox: db.allowApprox,
	}
	if cs := distance.Centers(req.metric); len(cs) > 1 {
		q.M = len(cs)
	}
	if req.cache != nil {
		q.CachedLeaves = req.cache.CachedLeaves()
	}
	return q
}

// schemeOf classifies the metric family for cost-model keying: cost per
// evaluation differs by family (a full-scheme quadratic form costs
// O(d²) where Euclidean costs O(d)), so each family learns its own
// latency curve.
func schemeOf(m distance.Metric) string {
	switch m.(type) {
	case *distance.Euclidean:
		return "euclidean"
	case *distance.Quadratic:
		return "quadratic"
	case *distance.Disjunctive, *distance.Aggregate:
		return "multipoint"
	case *distance.ConvexCombination:
		return "convex"
	}
	return "other"
}

// SearchApprox answers a plain k-NN query on the ANN backend with an
// explicit efSearch override (0 = the index default) — the recall knob
// per query instead of per database. See SearchApproxContext.
func (db *Database) SearchApprox(example []float64, k, efSearch int) []Result {
	res, _ := db.SearchApproxContext(context.Background(), example, k, efSearch)
	return res
}

// SearchApproxContext is SearchApprox with cooperative cancellation. It
// requires IndexOptions.Backend "ann" (ErrBackendUnavailable
// otherwise); results are the exact-refined candidates of one graph
// search, so they are bit-exact given the candidate set, and
// efSearch >= Len() degenerates to an exhaustive exact search.
func (db *Database) SearchApproxContext(ctx context.Context, example []float64, k, efSearch int) ([]Result, error) {
	res, _, err := db.execute(ctx, searchRequest{op: "SearchApproxContext", example: example, k: k, approx: true, ef: efSearch})
	return res, err
}
