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
	ID   int
	Dist float64
}

// SearchStats records the work a search performed, the cost measures the
// execution-cost experiments report. A swept search (Swept) reports the
// whole store as visited: LeavesVisited = LeavesTotal, so PruneRatio
// reads 0, and DistanceEvals is the probe phase's evaluations plus one
// per stored vector, summed over the sweep's workers.
type SearchStats struct {
	NodesVisited  int // internal + leaf nodes expanded
	LeavesVisited int
	DistanceEvals int
	// LeavesTotal is the number of leaves in the index at search time;
	// LeavesTotal - LeavesVisited is the pruned count (see PruneRatio).
	// 0 for searchers without a leaf structure (LinearScan).
	LeavesTotal int
	// CacheSeedLeaves counts leaves evaluated from the refinement
	// searcher's cross-iteration cache before the traversal started —
	// the cache hits of the multipoint refinement approach.
	CacheSeedLeaves int
	// Workers is the number of goroutines that evaluated candidates: 1
	// unless the search swept a store large enough to share out.
	Workers int
	// Swept counts tree searches that found the tree not pruning and
	// finished as a sweep of the store in storage order (0 or 1 for one
	// search; Add sums the legs of a sharded one).
	Swept int
	// BatchedEvals counts the distance evaluations that went through the
	// bound-aware batch kernels — a subset of DistanceEvals; 0 when the
	// metric does not implement distance.BatchMetric.
	BatchedEvals int
	// AbandonedEvals counts batched evaluations the kernel cut short
	// because the partial accumulation provably exceeded the pruning
	// bound. Each still counts in DistanceEvals (it is work the search
	// asked for), so AbandonedEvals/BatchedEvals is the fraction of
	// candidate evaluations the kernels did not pay in full.
	AbandonedEvals int
	// GraphHops counts ANN graph nodes expanded during navigation
	// (greedy descent + layer-0 beam). 0 on the exact backends.
	GraphHops int
	// RefineEvals counts full-precision exact re-evaluations of ANN
	// candidates — a subset of DistanceEvals. 0 on the exact backends.
	RefineEvals int
}

// Add accumulates other into s: work counters sum; Workers keeps the
// maximum (it describes a configuration, not work done).
func (s *SearchStats) Add(other SearchStats) {
	s.NodesVisited += other.NodesVisited
	s.LeavesVisited += other.LeavesVisited
	s.DistanceEvals += other.DistanceEvals
	s.LeavesTotal += other.LeavesTotal
	s.CacheSeedLeaves += other.CacheSeedLeaves
	s.Swept += other.Swept
	s.BatchedEvals += other.BatchedEvals
	s.AbandonedEvals += other.AbandonedEvals
	s.GraphHops += other.GraphHops
	s.RefineEvals += other.RefineEvals
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
}

// LeavesPruned counts the index leaves the search never touched:
// LeavesTotal - LeavesVisited, or 0 when no leaf structure exists.
func (s SearchStats) LeavesPruned() int {
	if s.LeavesVisited >= s.LeavesTotal {
		return 0
	}
	return s.LeavesTotal - s.LeavesVisited
}

// PruneRatio is the fraction of index leaves the search never touched:
// 1 - LeavesVisited/LeavesTotal, or 0 when no leaf structure exists.
// Accumulated stats yield the visit-weighted aggregate ratio.
func (s SearchStats) PruneRatio() float64 {
	if s.LeavesTotal <= 0 || s.LeavesVisited >= s.LeavesTotal {
		return 0
	}
	return 1 - float64(s.LeavesVisited)/float64(s.LeavesTotal)
}

// Cost is the one derivation of the obs layer's dependency-free
// CostStats from a search's statistics — what request cost profiles,
// per-shard legs and /debug/slow report.
func (s SearchStats) Cost() obs.CostStats {
	return obs.CostStats{
		NodesVisited:   s.NodesVisited,
		LeavesVisited:  s.LeavesVisited,
		LeavesTotal:    s.LeavesTotal,
		DistanceEvals:  s.DistanceEvals,
		Swept:          s.Swept,
		BatchedEvals:   s.BatchedEvals,
		AbandonedEvals: s.AbandonedEvals,
		GraphHops:      s.GraphHops,
		RefineEvals:    s.RefineEvals,
	}
}

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
