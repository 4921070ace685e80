package index

import (
	"context"
	"math"
	"sort"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// HybridTree is a hierarchical index in the style of Chakrabarti &
// Mehrotra's hybrid tree, the structure the paper indexes its feature
// vectors with. Like the hybrid tree (and unlike R-trees), internal nodes
// split on a single dimension, so fanout does not degrade with
// dimensionality; like feature-based indexes, every node keeps the
// bounding box of the live space beneath it, which gives the best-first
// search tight MINDIST lower bounds.
//
// The tree is bulk-loaded by recursive splitting on the dimension of
// largest spread at the median — the standard construction for a static
// collection, which is what the experiments need.
//
// The tree does no internal locking: callers that mix Insert with
// searches must serialize them externally (the public Database does this
// with an RWMutex).
type HybridTree struct {
	store        *Store
	root         *treeNode
	leafCapacity int
	epoch        uint64             // bumped by every Insert (which may re-split a leaf in place); cached nodes live only while it holds
	parallelism  int                // resolved worker count of a swept search (>= 1)
	parMinItems  int                // smallest store a sweep spreads over more than one worker
	numLeaves    int                // leaf count, maintained by build and Insert re-splits
	maxResplits  int                // re-split budget per insert batch (<0 = unlimited)
	pending      []*treeNode        // overflowed leaves awaiting re-split
	pendingSet   map[*treeNode]bool // membership for the pending queue
}

type treeNode struct {
	lo, hi      linalg.Vector // live-space bounding box
	left, right *treeNode
	items       []int // leaf payload (object ids); nil for internal nodes
	count       int   // vectors stored beneath (len(items) for a leaf)
}

func (n *treeNode) isLeaf() bool { return n.items != nil }

// TreeOptions configures construction.
type TreeOptions struct {
	// NodeSizeBytes models the paper's 4 KB index node: the leaf capacity
	// is NodeSizeBytes / (8 bytes × dim). Defaults to 4096.
	NodeSizeBytes int
	// Parallelism is the worker count of a swept k-NN search (see
	// knnSeeded): 0 means GOMAXPROCS, 1 sweeps on the calling goroutine.
	// The best-first traversal is always sequential, and so is the sweep
	// of a small store (below 8192 items), where hand-off costs more than
	// the scan.
	Parallelism int
	// MaxResplitsPerBatch caps how many overflowed leaves one Insert or
	// InsertBatch call may rebuild while it holds the write lock; the
	// rest stay queued (still exact, just oversized) for later batches.
	// 0 uses the default (8); negative removes the cap.
	MaxResplitsPerBatch int
}

// defaultMaxResplits bounds per-batch re-split work: rebuilding a leaf
// is O(cap·log) with sorting, so 8 rebuilds keep the write-lock hold in
// the tens of microseconds while still draining any realistic overflow
// rate faster than it accrues.
const defaultMaxResplits = 8

// NewHybridTree bulk-loads the index over the store.
func NewHybridTree(s *Store, opt TreeOptions) *HybridTree {
	if opt.NodeSizeBytes <= 0 {
		opt.NodeSizeBytes = 4096
	}
	capacity := opt.NodeSizeBytes / (8 * s.Dim())
	if capacity < 4 {
		capacity = 4
	}
	ids := make([]int, s.Len())
	for i := range ids {
		ids[i] = i
	}
	maxResplits := opt.MaxResplitsPerBatch
	if maxResplits == 0 {
		maxResplits = defaultMaxResplits
	}
	t := &HybridTree{
		store:        s,
		leafCapacity: capacity,
		parallelism:  resolveParallelism(opt.Parallelism),
		parMinItems:  parallelMinItems,
		maxResplits:  maxResplits,
	}
	t.root = t.build(ids)
	t.numLeaves = countLeaves(t.root)
	return t
}

func countLeaves(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.isLeaf() {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

// LeafCapacity exposes the effective leaf capacity (for tests and docs).
func (t *HybridTree) LeafCapacity() int { return t.leafCapacity }

// Height returns the tree height (1 for a single leaf).
func (t *HybridTree) Height() int { return height(t.root) }

func height(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.isLeaf() {
		return 1
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func (t *HybridTree) build(ids []int) *treeNode {
	n := &treeNode{count: len(ids)}
	n.lo, n.hi = t.bbox(ids)
	if len(ids) <= t.leafCapacity {
		n.items = ids
		return n
	}
	// Split on the dimension with the largest spread, at the median.
	splitDim := 0
	bestSpread := -1.0
	for d := 0; d < t.store.Dim(); d++ {
		if spread := n.hi[d] - n.lo[d]; spread > bestSpread {
			bestSpread, splitDim = spread, d
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		return t.store.Vector(ids[i])[splitDim] < t.store.Vector(ids[j])[splitDim]
	})
	mid := len(ids) / 2
	// Guard against all-equal keys on the split dimension producing an
	// empty side: move mid to the first differing position when possible.
	for mid < len(ids) && mid > 0 &&
		t.store.Vector(ids[mid])[splitDim] == t.store.Vector(ids[0])[splitDim] &&
		t.store.Vector(ids[len(ids)-1])[splitDim] != t.store.Vector(ids[0])[splitDim] {
		mid++
	}
	if mid == 0 || mid == len(ids) {
		// Degenerate data (all equal on every spread dimension): leaf it.
		n.items = ids
		return n
	}
	left := append([]int(nil), ids[:mid]...)
	right := append([]int(nil), ids[mid:]...)
	n.left = t.build(left)
	n.right = t.build(right)
	return n
}

func (t *HybridTree) bbox(ids []int) (lo, hi linalg.Vector) {
	dim := t.store.Dim()
	lo = make(linalg.Vector, dim)
	hi = make(linalg.Vector, dim)
	for d := 0; d < dim; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, id := range ids {
		v := t.store.Vector(id)
		for d, x := range v {
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	return lo, hi
}

// nodeQueue is a min-heap of tree nodes keyed by metric lower bound. It
// is typed rather than a container/heap client — that interface boxes
// an entry per push and pop — and sifts exactly as container/heap does,
// so nodes with tied bounds leave in the same order.
type nodeEntry struct {
	node  *treeNode
	bound float64
}

type nodeQueue []nodeEntry

func (q *nodeQueue) push(e nodeEntry) {
	s := append(*q, e)
	*q = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].bound <= s[i].bound {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (q *nodeQueue) pop() nodeEntry {
	s := *q
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*q = s
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].bound < s[child].bound {
			child = r
		}
		if s[i].bound <= s[child].bound {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// KNN answers a k-nearest-neighbor query with best-first (Hjaltason &
// Samet style) traversal: nodes are expanded in lower-bound order and
// pruned once their bound exceeds the kth-best distance found so far.
// k <= 0 yields no results.
func (t *HybridTree) KNN(m distance.Metric, k int) ([]Result, SearchStats) {
	res, stats, _, _ := t.knnSeeded(context.Background(), m, k, nil, nil)
	return res, stats
}

// KNNContext is KNN with cooperative cancellation: the best-first loop
// checks ctx between node expansions and, when the context is cancelled
// or its deadline passes mid-traversal, stops early and returns the
// best-effort results accumulated so far together with ctx.Err(). A nil
// error means the search ran to completion and the results are exact.
func (t *HybridTree) KNNContext(ctx context.Context, m distance.Metric, k int) ([]Result, SearchStats, error) {
	res, stats, _, err := t.knnSeeded(ctx, m, k, nil, nil)
	return res, stats, err
}

// KNNSharedContext is KNNContext with an externally owned pruning bound:
// concurrent searches over sibling shards pass the same *SharedBound so
// each tightens — and prunes against — the global k-th-best distance.
// Each participant still returns its own local top-k (restricted to
// candidates that can reach the global top-k); the caller merges the
// per-shard result sets with the usual (Dist, ID) order. A nil ext
// behaves exactly like KNNContext.
func (t *HybridTree) KNNSharedContext(ctx context.Context, m distance.Metric, k int, ext *SharedBound) ([]Result, SearchStats, error) {
	res, stats, _, err := t.knnSeeded(ctx, m, k, nil, ext)
	return res, stats, err
}

// knnSeeded runs best-first search after (optionally) seeding the result
// heap with the contents of previously cached leaves. Seeding tightens
// the pruning bound before any tree node is expanded — the mechanism by
// which the multipoint refinement approach reuses work across feedback
// iterations. It returns the leaves visited so callers can cache them,
// plus a non-nil ctx.Err() when the search was cut short (results are
// then the best found so far, still sorted).
//
// The traversal is sequential. Once, after the leaf that brings the
// count to max(sweepCheckLeaves, numLeaves/sweepCheckShare), it asks
// whether the tree is still pruning (sweepPays); if not, the search
// finishes as a sweep of the store in storage order.
//
// A non-nil ext couples this search to concurrent sibling-shard searches
// through one shared atomic bound (see KNNSharedContext): pruning and
// abandonment use min(local k-th best, shared bound), and the local k-th
// best is published after every leaf. Pruned candidates are exactly
// those certifiably past the global k-th best, so the union of all
// participants' results still contains the global top-k bit-identically.
func (t *HybridTree) knnSeeded(ctx context.Context, m distance.Metric, k int, seed []*treeNode, ext *SharedBound) ([]Result, SearchStats, []*treeNode, error) {
	var stats SearchStats
	stats.LeavesTotal = t.numLeaves
	stats.Workers = 1
	if k <= 0 {
		return nil, stats, nil, ctx.Err()
	}
	h := newResultHeap(k)
	var visited []*treeNode

	// bound is the effective pruning bound: the local k-th best, further
	// tightened by the cross-shard shared bound when one is attached.
	bound := h.bound
	if ext != nil {
		bound = func() float64 { return min(h.bound(), ext.Load()) }
	}

	be := newBatchEvaluator(m, t.store)
	evalLeaf := func(n *treeNode) {
		stats.LeavesVisited++
		stats.DistanceEvals += len(n.items)
		if be != nil {
			// Batched leaf sweep: the current k-th-best distance is the
			// abandonment bound (evalInto disables abandonment while the
			// heap is still filling).
			stats.BatchedEvals += len(n.items)
			stats.AbandonedEvals += be.evalInto(n.items, bound(), h)
		} else {
			for _, id := range n.items {
				h.offer(Result{ID: id, Dist: m.Eval(t.store.Vector(id))})
			}
		}
		if ext != nil {
			ext.Tighten(h.bound())
		}
		visited = append(visited, n)
	}

	// Only a seed leaf can be met twice (the traversal pops each node
	// once), so an unseeded search keeps no set at all.
	var seeded map[*treeNode]bool
	if len(seed) > 0 {
		seeded = make(map[*treeNode]bool, len(seed))
	}
	for _, n := range seed {
		if err := ctx.Err(); err != nil {
			return h.sorted(), stats, visited, err
		}
		if n.isLeaf() && !seeded[n] {
			seeded[n] = true
			stats.CacheSeedLeaves++
			evalLeaf(n)
		}
	}

	checkAt := max(sweepCheckLeaves, t.numLeaves/sweepCheckShare)
	q := nodeQueue{{node: t.root, bound: m.LowerBound(t.root.lo, t.root.hi)}}
	for len(q) > 0 {
		faultinject.Fire(faultinject.KNNPop)
		if err := ctx.Err(); err != nil {
			return h.sorted(), stats, visited, err
		}
		e := q.pop()
		if e.bound > bound() {
			break // every remaining node is at least this far
		}
		stats.NodesVisited++
		n := e.node
		if !n.isLeaf() {
			for _, child := range [2]*treeNode{n.left, n.right} {
				if child == nil {
					continue
				}
				if b := m.LowerBound(child.lo, child.hi); b <= bound() {
					q.push(nodeEntry{node: child, bound: b})
				}
			}
			continue
		}
		if seeded[n] {
			continue
		}
		evalLeaf(n)
		if stats.LeavesVisited >= checkAt {
			checkAt = math.MaxInt // the check runs once
			if t.sweepPays(q, bound()) {
				res, err := t.sweep(ctx, m, h, ext, &stats)
				return res, stats, visited, err
			}
		}
	}
	return h.sorted(), stats, visited, nil
}

// RefinementSearcher wraps a HybridTree with the cross-iteration leaf
// cache used by multipoint query refinement: each KNN seeds its pruning
// bound from the leaves the previous iteration visited (refined queries
// move only slightly, so cached leaves contain most of the new answer).
// The cache makes later feedback iterations markedly cheaper — the cost
// shape of the paper's Fig. 7.
type RefinementSearcher struct {
	tree   *HybridTree
	cached []*treeNode
	epoch  uint64 // tree epoch the cache was taken at
}

// NewRefinementSearcher builds a searcher with an empty cache.
func NewRefinementSearcher(t *HybridTree) *RefinementSearcher {
	return &RefinementSearcher{tree: t}
}

// KNN answers the query, seeding from and then replacing the leaf cache.
// A cache taken at an older tree epoch (i.e. before an Insert, which may
// have re-split cached leaves) is discarded rather than reused.
func (r *RefinementSearcher) KNN(m distance.Metric, k int) ([]Result, SearchStats) {
	res, stats, _ := r.KNNContext(context.Background(), m, k)
	return res, stats
}

// KNNContext is KNN with cooperative cancellation (see
// HybridTree.KNNContext). A completed search replaces the leaf cache
// with exactly the leaves it visited; an interrupted search instead
// unions the leaves it reached with the same-epoch cache it was seeded
// from — the unreached cached leaves are still valid seeds, and
// discarding them would make the retry start colder than the previous
// completed search.
func (r *RefinementSearcher) KNNContext(ctx context.Context, m distance.Metric, k int) ([]Result, SearchStats, error) {
	return r.KNNSharedContext(ctx, m, k, nil)
}

// KNNSharedContext is KNNContext with an externally owned pruning bound
// (see HybridTree.KNNSharedContext): per-shard refinement searchers pass
// one *SharedBound per scatter-gather query so the shards prune against
// the global k-th best while each keeps its own cross-iteration leaf
// cache. A nil ext behaves exactly like KNNContext.
func (r *RefinementSearcher) KNNSharedContext(ctx context.Context, m distance.Metric, k int, ext *SharedBound) ([]Result, SearchStats, error) {
	if r.epoch != r.tree.epoch {
		r.cached = nil
	}
	res, stats, visited, err := r.tree.knnSeeded(ctx, m, k, r.cached, ext)
	if err != nil {
		r.cached = unionLeaves(visited, r.cached)
	} else {
		r.cached = visited
	}
	r.epoch = r.tree.epoch
	return res, stats, err
}

// unionLeaves returns visited plus every leaf of cached not already in
// visited, preserving visited's order (the warmest seeds first).
func unionLeaves(visited, cached []*treeNode) []*treeNode {
	if len(cached) == 0 {
		return visited
	}
	seen := make(map[*treeNode]bool, len(visited))
	for _, n := range visited {
		seen[n] = true
	}
	out := visited
	for _, n := range cached {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// Reset drops the cache (for a fresh query session).
func (r *RefinementSearcher) Reset() { r.cached = nil }
