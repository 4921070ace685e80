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

// BlockRows is the row count of one storage block: the store keeps the
// bounding box of every BlockRows consecutive vectors, and a swept
// search skips a block whose box is provably past its k-th best. A
// divisor of sweepChunk, so a sweep's chunks are whole blocks. Smaller
// blocks skip more of a clustered store but pay more box checks where
// nothing skips. internal/shard places ids in runs of BlockRows, so a
// shard's blocks are the unsharded store's.
const BlockRows = 64

// Store is an append-only in-memory feature-vector database. Vector i
// belongs to image/object i. All vectors live in one contiguous
// []float64 block, so leaf scans walk memory sequentially instead of
// chasing per-vector pointers. Beside it the store keeps, per BlockRows
// rows in storage order, the rows' bounding box and the radius of a
// ball around the box midpoint that holds them. It does no internal
// locking — the public Database layer serializes Append against readers.
type Store struct {
	data  []float64 // n*dim components, vector i at [i*dim, (i+1)*dim)
	boxes []float64 // 2*dim per block: block b's lo at [2b*dim, (2b+1)*dim), its hi after
	radii []float64 // per block: max Euclidean distance of a row from the box midpoint (blockBall), rounded up
	dim   int
	n     int
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
	return buildStore(data, dim), nil
}

// buildStore wraps a validated block and builds its block boxes.
func buildStore(data []float64, dim int) *Store {
	n := len(data) / dim
	s := &Store{data: data, dim: dim, n: n}
	blocks := (n + BlockRows - 1) / BlockRows
	s.boxes = make([]float64, 0, blocks*2*dim)
	s.radii = make([]float64, 0, blocks)
	s.widenBoxes(0)
	return s
}

// widenBoxes folds rows [from, n) into the block boxes and radii: a row
// that starts a block opens its box, any other widens the box of the
// block it ends. A block opened here, or the block from lands in if its
// box widened (which moves its midpoint), is then measured over all its
// rows; if that box held, only the new rows are measured against the
// old radius.
func (s *Store) widenBoxes(from int) {
	dim := s.dim
	widened := false
	for id := from; id < s.n; id++ {
		row := s.data[id*dim : (id+1)*dim]
		if id%BlockRows == 0 {
			s.boxes = append(s.boxes, row...)
			s.boxes = append(s.boxes, row...)
			s.radii = append(s.radii, 0)
			continue
		}
		box := s.boxes[len(s.boxes)-2*dim:]
		lo, hi := box[:dim], box[dim:]
		for d, x := range row {
			widened = widened || x < lo[d] || x > hi[d]
			lo[d] = min(lo[d], x)
			hi[d] = max(hi[d], x)
		}
	}
	for b := from / BlockRows; b < len(s.radii); b++ {
		first := b * BlockRows
		if first < from && !widened {
			first = from
		} else {
			s.radii[b] = 0
		}
		s.radii[b] = max(s.radii[b], s.measure(b, first))
	}
}

// radiusSlack rounds a measured block radius up past the rounding of
// its sum of squares and square root.
const radiusSlack = 0x1p-40

// measure returns the largest Euclidean distance from block b's
// midpoint of its rows [first, block end), rounded up: +Inf when a
// distance overflows.
func (s *Store) measure(b, first int) float64 {
	dim := s.dim
	lo, hi := s.blockBox(b)
	var r2 float64
	for id := first; id < min((b+1)*BlockRows, s.n); id++ {
		row := s.data[id*dim : (id+1)*dim]
		var d2 float64
		for d, x := range row {
			dx := x - (lo[d]*0.5 + hi[d]*0.5)
			d2 += dx * dx
		}
		r2 = max(r2, d2)
	}
	return math.Sqrt(r2) * (1 + radiusSlack)
}

// blocks returns the number of storage blocks.
func (s *Store) blocks() int { return len(s.radii) }

// blockLen returns the rows of block b: BlockRows, fewer for the tail.
func (s *Store) blockLen(b int) int { return min(BlockRows, s.n-b*BlockRows) }

// blockBox returns the bounding box of block b, rows [b*BlockRows,
// min((b+1)*BlockRows, n)), aliased: treat as read-only.
func (s *Store) blockBox(b int) (lo, hi linalg.Vector) {
	off := 2 * b * s.dim
	return s.boxes[off : off+s.dim : off+s.dim], s.boxes[off+s.dim : off+2*s.dim : off+2*s.dim]
}

// blockBall writes block b's box midpoint, lo/2 + hi/2 (which cannot
// overflow), into mid and returns the block's radius: every row of the
// block is within it of mid.
func (s *Store) blockBall(b int, mid linalg.Vector) float64 {
	lo, hi := s.blockBox(b)
	for d := range mid {
		mid[d] = lo[d]*0.5 + hi[d]*0.5
	}
	return s.radii[b]
}

// NewStoreFlat wraps an already-contiguous component block (row-major,
// one vector per dim components) without copying. len(data) must be a
// positive multiple of dim and every component finite. The slice is
// retained; the block boxes are built beside it.
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
	return buildStore(data, dim), nil
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

// inf arms a bound: block skips, the early sweep plan and kernel
// abandonment act only on a bound below it. A heap still filling bounds
// at +Inf, so none of them act before k results are held.
const inf = 1e308
