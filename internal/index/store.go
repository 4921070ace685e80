// Package index provides the k-nearest-neighbor machinery under the
// retrieval system: a feature-vector store, a linear-scan reference
// searcher, a hybrid-tree-style hierarchical index with best-first search
// over arbitrary lower-boundable distance functions, and the
// cross-iteration node caching that the multipoint refinement approach
// uses to cut per-iteration execution cost (paper Fig. 7, citing
// Chakrabarti, Porkaew & Mehrotra's query-refinement technique).
package index

import (
	"fmt"
	"math"

	"repro/internal/distance"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// Store is an append-only in-memory feature-vector database. Vector i
// belongs to image/object i. All vectors live in one contiguous
// []float64 block, so leaf scans walk memory sequentially instead of
// chasing per-vector pointers. It does no internal locking — the public
// Database layer serializes Append against readers.
type Store struct {
	data []float64 // n*dim components, vector i at [i*dim, (i+1)*dim)
	dim  int
	n    int
}

// NewStore copies the given vectors into one contiguous block. All
// vectors must share one dimensionality and be finite (NaN or ±Inf
// components would silently corrupt every distance comparison). The
// input slice is not retained.
func NewStore(vecs []linalg.Vector) (*Store, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("index: empty store")
	}
	dim := vecs[0].Dim()
	for i, v := range vecs {
		if v.Dim() != dim {
			return nil, fmt.Errorf("index: vector %d has dim %d, want %d", i, v.Dim(), dim)
		}
		for d, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("index: vector %d component %d is not finite", i, d)
			}
		}
	}
	data := make([]float64, 0, len(vecs)*dim)
	for _, v := range vecs {
		data = append(data, v...)
	}
	return &Store{data: data, dim: dim, n: len(vecs)}, nil
}

// NewStoreFlat wraps an already-contiguous component block (row-major,
// one vector per dim components) without copying. len(data) must be a
// positive multiple of dim and every component finite. The slice is
// retained.
func NewStoreFlat(data []float64, dim int) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("index: non-positive dim %d", dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("index: flat block of %d components is not a positive multiple of dim %d", len(data), dim)
	}
	for i, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("index: vector %d component %d is not finite", i/dim, i%dim)
		}
	}
	return &Store{data: data, dim: dim, n: len(data) / dim}, nil
}

// Len returns the number of vectors.
func (s *Store) Len() int { return s.n }

// Flat returns the live contiguous component block (row-major, vector i
// at [i*dim, (i+1)*dim)), capacity-capped so an append through it cannot
// clobber the store. Treat as read-only; callers that need a stable copy
// (e.g. snapshotting concurrent with Append) must copy under the
// database's lock.
func (s *Store) Flat() []float64 {
	n := s.n * s.dim
	return s.data[:n:n]
}

// Dim returns the feature dimensionality.
func (s *Store) Dim() int { return s.dim }

// Vector returns vector id as a subslice of the contiguous block
// (aliased, treat as read-only). The full slice expression caps the
// subslice so an append through it cannot clobber the next vector.
func (s *Store) Vector(id int) linalg.Vector {
	off := id * s.dim
	return linalg.Vector(s.data[off : off+s.dim : off+s.dim])
}

// Result is one k-NN answer: an object id and its query distance.
type Result struct {
	// ID is the database index of the item.
	ID int
	// Dist is its distance under the query's current distance function.
	Dist float64
}

// SearchStats records the work a search performed, the cost measures the
// execution-cost experiments report. The struct is declared once, in
// obs, where cost profiles and /debug/slow carry it unconverted.
type SearchStats = obs.SearchStats

// Searcher answers k-NN queries for a metric.
type Searcher interface {
	// KNN returns the k objects with the smallest metric distance, in
	// ascending distance order, along with search-work statistics.
	KNN(m distance.Metric, k int) ([]Result, SearchStats)
}

// LinearScan is the exhaustive reference searcher.
type LinearScan struct {
	store *Store
}

// NewLinearScan builds a scanner over the store.
func NewLinearScan(s *Store) *LinearScan { return &LinearScan{store: s} }

// KNN scans every vector. k <= 0 yields no results.
func (l *LinearScan) KNN(m distance.Metric, k int) ([]Result, SearchStats) {
	if k <= 0 {
		return nil, SearchStats{}
	}
	stats := SearchStats{DistanceEvals: l.store.Len(), Workers: 1}
	h := newResultHeap(k)
	for id := 0; id < l.store.Len(); id++ {
		h.offer(Result{ID: id, Dist: m.Eval(l.store.Vector(id))})
	}
	return h.sorted(), stats
}

const inf = 1e308
