package qcluster

import (
	"context"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
)

// This file is the root package's contract with the sharded
// scatter-gather tier (internal/shard): the per-shard leg handle that
// runs one shard-local k-NN through the database's search pipeline while
// sharing one atomic k-th-best bound with the sibling shards. Results
// carry shard-local ids; the shard set remaps and merges them. The
// session half of the contract is SessionSearcher / NewSessionOver.

// Metric exposes the query model's current aggregate distance function.
// The query must be Ready — a query without feedback has no metric and
// this panics.
func (q *Query) Metric() distance.Metric { return q.metric() }

// EuclideanMetric builds the plain example-query metric — the one
// SearchByExample uses — for callers that drive per-shard searches
// directly. The example is not retained.
func EuclideanMetric(example []float64) distance.Metric {
	return &distance.Euclidean{Center: linalg.Vector(example).Clone()}
}

// ShardSearcher is one shard database's leg handle in the scatter-gather
// tier. A cached searcher owns a RefinementSearcher (the cross-iteration
// leaf cache of the multipoint refinement approach) and belongs to one
// session, which serializes its use exactly as Session serializes its
// single searcher; an uncached one is stateless and safe for concurrent
// use.
type ShardSearcher struct {
	db *Database
	rs *index.RefinementSearcher
}

// NewShardSearcher returns a leg handle over this database, with an
// empty refinement cache when cached is set.
func (db *Database) NewShardSearcher(cached bool) *ShardSearcher {
	ss := &ShardSearcher{db: db}
	if cached {
		ss.rs = index.NewRefinementSearcher(db.tree)
	}
	return ss
}

// Search answers one per-shard leg of a scatter-gather query under the
// database's read lock with an externally owned shared bound (nil
// behaves like a private bound), seeding from and refreshing the
// refinement cache when the searcher has one. Results use this
// database's local ids; the caller merges them across shards by (Dist,
// ID). With approx the leg runs the ANN graph at beam width efSearch —
// ErrBackendUnavailable on any other backend — and ignores the bound
// (the ANN path prunes nothing, so each leg returns its full local
// top-k and the merge stays correct). An interrupted leg returns its
// best-effort results with an error matching both ErrPartialResults and
// the context error. The leg feeds only this shard database's registry;
// the request's cost profile is the gather's to fill.
func (ss *ShardSearcher) Search(ctx context.Context, m distance.Metric, k int, approx bool, efSearch int, sb *index.SharedBound) ([]Result, index.SearchStats, error) {
	return ss.db.execute(ctx, searchRequest{op: "ShardSearcher.Search", metric: m, k: k,
		approx: approx, ef: efSearch, bound: sb, cache: ss.rs, leg: true})
}
