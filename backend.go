package qcluster

import (
	"context"
	"fmt"

	"repro/internal/ann"
	"repro/internal/index"
)

// This file is the backend-selection layer: every Database carries one
// of two k-NN execution paths behind the same search API. The exact
// hybrid tree stays the default; the ANN backend trades recall for
// latency — an HNSW-style graph over float32-quantized vectors proposes
// candidates, and exact full-precision refinement keeps every result
// list (and all downstream feedback math) bit-exact given the candidates.

// IndexBackend names a k-NN execution path.
type IndexBackend string

const (
	// BackendTree is the exact hybrid-tree best-first search (default).
	BackendTree IndexBackend = "tree"
	// BackendANN is the approximate HNSW-graph search with exact
	// refinement of the candidate set.
	BackendANN IndexBackend = "ann"
)

// normalize maps the zero value to the default and rejects unknowns.
func (b IndexBackend) normalize() (IndexBackend, error) {
	switch b {
	case "", BackendTree:
		return BackendTree, nil
	case BackendANN:
		return b, nil
	case "vafile":
		return "", fmt.Errorf("qcluster: index backend %q was removed; tree is the exact backend", string(b))
	}
	return "", fmt.Errorf("qcluster: unknown index backend %q (want tree or ann)", string(b))
}

// Validate reports whether b names a backend — the check constructors
// and qserve run before they load, copy or replay anything.
func (b IndexBackend) Validate() error {
	_, err := b.normalize()
	return err
}

// ANNOptions tunes the "ann" backend (ignored by the others). The graph
// itself is fixed at ann.Options' defaults: degree M = 16, insert beam
// efConstruction = 128, level seed 0 (the graph is deterministic given
// insertion order).
type ANNOptions struct {
	// EfSearch is the query-time beam width — the recall/latency knob.
	// Zero uses 64.
	EfSearch int
}

// IndexInfo describes the database's active search backend — the block
// qserve reports in /healthz and session-create responses.
type IndexInfo struct {
	// Backend is the execution path: "tree" or "ann".
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

// buildBackend constructs the ANN backend's graph (the tree itself is
// always built: it is the durability snapshot's substrate).
func (db *Database) buildBackend(opt IndexOptions) error {
	if db.backend != BackendANN {
		return nil
	}
	idx, err := ann.New(db.store, ann.Options{EfSearch: opt.ANN.EfSearch})
	if err != nil {
		return fmt.Errorf("qcluster: building ann index: %w", err)
	}
	db.annIdx = idx
	return nil
}

// syncBackendLocked brings the ANN graph up to date with store rows
// appended by the current (write-locked) insert.
func (db *Database) syncBackendLocked(ids []int) error {
	if db.annIdx == nil {
		return nil
	}
	if err := db.annIdx.InsertBatch(ids); err != nil {
		return fmt.Errorf("qcluster: ann insert: %w", err)
	}
	return nil
}

// knnBackend is the one dispatch point execute funnels every search
// through: it runs one k-NN on the active backend under the read lock.
// The cross-shard shared bound only applies to the tree — the ANN path
// prunes nothing, so it is ignored there and the scatter-gather merge
// still works (each leg returns its full local top-k, a superset of what
// a bound would have kept).
func (db *Database) knnBackend(ctx context.Context, req searchRequest) ([]index.Result, index.SearchStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.backend == BackendANN {
		return db.annIdx.KNNContext(ctx, req.metric, req.k)
	}
	return db.tree.KNNSharedContext(ctx, req.metric, req.k, req.bound)
}
