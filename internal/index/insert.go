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
// are never mutated). The vector widens the box of the store's last
// block, or opens a new block.
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
	s.widenBoxes(s.n - 1)
	return s.n - 1, nil
}

// InsertStats reports the index-maintenance work of one Insert or
// InsertBatch call: the leaf re-splits it ran while the caller held the
// store write lock, which every search waits behind.
type InsertStats struct {
	// Resplits counts overflowed leaves rebuilt into subtrees.
	Resplits int
	// ResplitTime is the wall-clock those rebuilds held the write lock.
	ResplitTime time.Duration
}

// Insert adds store vector id to the tree: InsertBatch of one.
func (t *HybridTree) Insert(id int) InsertStats {
	return t.InsertBatch([]int{id})
}

// InsertBatch adds store vectors to the tree under a single epoch bump.
// Each vector descends to the leaf whose live-space box needs the least
// enlargement (growing every box on the path) and joins it. Then every
// leaf the batch filled past capacity is rebuilt once, with the bulk
// load's median split, so no leaf is over capacity when it returns.
func (t *HybridTree) InsertBatch(ids []int) InsertStats {
	var st InsertStats
	if len(ids) == 0 {
		return st
	}
	t.epoch++
	var overflowed []*treeNode
	for _, id := range ids {
		// build leaves no leaf over capacity, so a leaf overflows in
		// this batch at exactly one insert.
		if n := t.insertOne(id); len(n.items) == t.leafCapacity+1 {
			overflowed = append(overflowed, n)
		}
	}
	for _, n := range overflowed {
		start := time.Now()
		*n = *t.build(n.items)
		t.numLeaves += countLeaves(n) - 1 // the leaf became a subtree
		st.ResplitTime += time.Since(start)
		st.Resplits++
	}
	return st
}

// insertOne files store vector id under a leaf and returns that leaf.
func (t *HybridTree) insertOne(id int) *treeNode {
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
	return n
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
