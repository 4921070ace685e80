package index

import (
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
)

// Append copies a vector onto the end of the store's contiguous block
// and returns its new id. The vector must match the store's
// dimensionality and be finite. Indexes built over the store do NOT see
// the new vector automatically — call the index's Insert with the
// returned id. A grow may reallocate the block; subslices handed out
// earlier by Vector stay valid (they alias the old block, whose contents
// are never mutated).
func (s *Store) Append(v linalg.Vector) (int, error) {
	if v.Dim() != s.dim {
		return 0, fmt.Errorf("index: append dim %d, store has %d", v.Dim(), s.dim)
	}
	for d, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("index: append component %d is not finite", d)
		}
	}
	s.data = append(s.data, v...)
	s.n++
	return s.n - 1, nil
}

// InsertStats reports the index-maintenance work of one Insert or
// InsertBatch call — the visibility half of the re-split fix: inserts
// used to re-split every overflowing leaf inline under the store write
// lock with no trace, so an unlucky batch stalled every reader behind
// an invisible rebuild.
type InsertStats struct {
	// Resplits counts overflowed leaves rebuilt into subtrees by this
	// call (bounded by the per-batch cap).
	Resplits int
	// ResplitTime is the wall-clock those rebuilds held the write lock.
	ResplitTime time.Duration
	// Deferred is the overflowed-leaf backlog left for later batches.
	// Deferred leaves stay valid (searches remain exact), just oversized.
	Deferred int
}

// Add accumulates other into s.
func (s *InsertStats) Add(other InsertStats) {
	s.Resplits += other.Resplits
	s.ResplitTime += other.ResplitTime
	if other.Deferred > s.Deferred {
		s.Deferred = other.Deferred // backlog size, not a sum
	}
}

// Insert adds store vector id to the tree: it descends to the leaf whose
// live-space box needs the least enlargement (growing every box on the
// path) and appends the item. An overflowing leaf is queued and
// re-split by the bounded drain below — see InsertBatch. The tree stays
// exactly correct for search either way: live-space boxes always
// contain their subtree's points, and an oversized leaf is still a
// valid leaf.
func (t *HybridTree) Insert(id int) InsertStats {
	t.epoch++
	t.insertOne(id)
	return t.drainResplits()
}

// InsertBatch adds a contiguous run of store vectors to the tree under a
// single epoch bump — the batch-ingest path. One bump is enough for
// correctness (refinement caches taken before the batch are invalidated
// exactly once) and keeps cross-iteration caches warmer than bumping per
// vector would.
//
// Re-split work is capped per batch (TreeOptions.MaxResplitsPerBatch):
// leaves that overflow beyond the cap stay queued and are drained by
// later inserts, so one pathological batch cannot hold the write lock
// for an unbounded rebuild while every search waits.
func (t *HybridTree) InsertBatch(ids []int) InsertStats {
	if len(ids) == 0 {
		return InsertStats{Deferred: len(t.pending)}
	}
	t.epoch++
	for _, id := range ids {
		t.insertOne(id)
	}
	return t.drainResplits()
}

func (t *HybridTree) insertOne(id int) {
	if id < 0 || id >= t.store.Len() {
		panic(fmt.Sprintf("index: insert id %d out of range", id))
	}
	v := t.store.Vector(id)
	n := t.root
	for !n.isLeaf() {
		growBox(n, v)
		n.count++
		if enlargement(n.left, v) <= enlargement(n.right, v) {
			n = n.left
		} else {
			n = n.right
		}
	}
	growBox(n, v)
	n.count++
	n.items = append(n.items, id)
	if len(n.items) > t.leafCapacity && !t.pendingSet[n] {
		if t.pendingSet == nil {
			t.pendingSet = make(map[*treeNode]bool)
		}
		t.pendingSet[n] = true
		t.pending = append(t.pending, n)
	}
}

// drainResplits rebuilds queued overflowed leaves, oldest first, up to
// the per-batch cap, with the same median-split construction used at
// bulk load. A queued node that an earlier drain already rebuilt (it
// became an internal node in place) is skipped.
func (t *HybridTree) drainResplits() InsertStats {
	var st InsertStats
	budget := t.maxResplits
	for len(t.pending) > 0 && (budget < 0 || st.Resplits < budget) {
		n := t.pending[0]
		t.pending = t.pending[1:]
		delete(t.pendingSet, n)
		if !n.isLeaf() || len(n.items) <= t.leafCapacity {
			continue
		}
		start := time.Now()
		rebuilt := t.build(n.items)
		*n = *rebuilt
		t.numLeaves += countLeaves(n) - 1 // the leaf became a subtree
		st.ResplitTime += time.Since(start)
		st.Resplits++
	}
	st.Deferred = len(t.pending)
	return st
}

// growBox extends n's bounding box to contain v.
func growBox(n *treeNode, v linalg.Vector) {
	for d, x := range v {
		if x < n.lo[d] {
			n.lo[d] = x
		}
		if x > n.hi[d] {
			n.hi[d] = x
		}
	}
}

// enlargement returns the total box-side growth needed for n's box to
// contain v (0 when already inside).
func enlargement(n *treeNode, v linalg.Vector) float64 {
	var g float64
	for d, x := range v {
		if x < n.lo[d] {
			g += n.lo[d] - x
		} else if x > n.hi[d] {
			g += x - n.hi[d]
		}
	}
	return g
}
