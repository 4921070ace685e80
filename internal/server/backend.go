package server

import (
	"context"

	qcluster "repro"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Backend is the retrieval engine behind the HTTP layer: one unsharded
// database or a sharded set, behind the same searcher surface. The
// refactor point for future backends (replicas, ANN indexes):
// the handlers only ever talk to this interface.
type Backend interface {
	Len() int
	Dim() int
	VectorOK(id int) ([]float64, bool)
	SearchByExampleContext(ctx context.Context, example []float64, k int) ([]qcluster.Result, error)
	// NewSessionRouted opens a feedback session for routing key (the
	// session id) and returns it with its home shard: the consistent-hash
	// member that owns the key, or -1 when the backend is unsharded.
	NewSessionRouted(example []float64, opt qcluster.Options, key string) (*qcluster.Session, int)
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

func (b dbBackend) NewSessionRouted(example []float64, opt qcluster.Options, _ string) (*qcluster.Session, int) {
	return b.Database.NewSession(example, opt), -1
}

// setBackend adapts a sharded set: searches scatter-gather across every
// shard, sessions pin to a consistent-hash home member, ingest routes
// by placement, and healthz/metrics grow per-shard blocks.
type setBackend struct {
	*shard.Set
}

func (b setBackend) NewSessionRouted(example []float64, opt qcluster.Options, key string) (*qcluster.Session, int) {
	sess := b.Set.NewSessionRouted(example, opt, key)
	return sess.Session, sess.Home()
}

// shardHealthBlock is one shard's /healthz block: the set's per-shard
// health plus how many live sessions call the shard home.
type shardHealthBlock struct {
	shard.ShardHealth
	Sessions int `json:"sessions"`
}
