package server

import (
	"context"

	qcluster "repro"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Backend is the retrieval engine behind the HTTP layer: the two
// collection shapes bench/ and qserve serve, one unsharded database
// (New) or a sharded set (NewSharded). The set is closed: an ANN index
// is an IndexOptions.Backend of either shape, not a third one.
type Backend interface {
	Len() int
	Dim() int
	VectorOK(id int) ([]float64, bool)
	SearchByExampleContext(ctx context.Context, example []float64, k int) ([]qcluster.Result, error)
	NewSession(example []float64, opt qcluster.Options) *qcluster.Session
	// AddBatchContext is the fallback ingest path when Options.Ingestor
	// is unset.
	AddBatchContext(ctx context.Context, vectors [][]float64) ([]int, error)
	Metrics() obs.Snapshot
	Registry() *obs.Registry
	// IndexInfo reports the active k-NN execution path ("tree" or
	// "ann") and, for the ANN backend, the resolved graph parameters —
	// surfaced in /healthz's info block and session-create responses so a
	// client can tell which recall contract its results carry.
	IndexInfo() qcluster.IndexInfo
}

// dbBackend adapts a single qcluster.Database.
type dbBackend struct {
	*qcluster.Database
}

// setBackend adapts a sharded set: searches scatter-gather across every
// shard, ingest routes by placement, and healthz/metrics grow per-shard
// blocks.
type setBackend struct {
	*shard.Set
}
