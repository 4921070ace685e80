package qcluster

import (
	"context"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
)

// This file is the root package's contract with the sharded
// scatter-gather tier (internal/shard): the per-shard leg that runs one
// shard-local k-NN through the database's search pipeline while sharing
// one atomic k-th-best bound with the sibling shards. Results carry
// shard-local ids; the shard set remaps and merges them. The session
// half of the contract is SessionSearcher / NewSessionOver.

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

// SearchLeg answers one shard's leg of a scatter-gather query under the
// database's read lock with the gather's shared bound (nil behaves like
// a private bound). Results use this database's local ids; the caller
// merges them across shards by (Dist, ID). The leg's tree prunes
// against the tighter of its own k-th best and the shared bound; a row
// past the shared bound cannot enter the merged top-k, so the merge
// stays exact. An interrupted leg returns its best-effort results with
// an error matching both ErrPartialResults and the context error. The
// leg feeds only this shard database's registry; the request's cost
// profile is the gather's to fill.
func (db *Database) SearchLeg(ctx context.Context, m distance.Metric, k int, sb *index.SharedBound) ([]Result, index.SearchStats, error) {
	res, stats, _, err := db.execute(ctx, searchRequest{op: "SearchLeg", metric: m, k: k, bound: sb, leg: true})
	return res, stats, err
}
