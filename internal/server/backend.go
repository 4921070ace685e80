package server

import (
	"context"

	qcluster "repro"
	"repro/internal/obs"
)

// Backend is the retrieval engine behind the HTTP layer: the two
// collection shapes bench/ and qserve serve, one unsharded database
// (New) or a sharded set (NewSharded), each searched by its hybrid
// trees. The set is closed: there is no third shape.
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
}
