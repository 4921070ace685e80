package index

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/faultinject"
)

const (
	// parallelMinItems is the smallest store for which the parallel leaf
	// stage engages; below it the whole search fits in cache and worker
	// hand-off costs more than the evaluations it distributes.
	parallelMinItems = 8192
	// parallelBatchItems is the target number of vector evaluations per
	// work unit sent to the pool — large enough to amortize channel
	// hand-off, small enough that the shared bound tightens frequently.
	parallelBatchItems = 512
)

// resolveParallelism maps the TreeOptions knob to a worker count:
// 0 means GOMAXPROCS, anything below 1 is clamped to 1 (sequential).
func resolveParallelism(p int) int {
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// SharedBound is the k-th-best distance published across search workers
// — and, since the sharded scatter-gather tier, across whole per-shard
// searches — stored as float64 bits in an atomic. Distances are
// non-negative, and for non-negative floats the bit patterns order like
// the values, so a compare-and-swap min needs no float reinterpretation
// tricks beyond math.Float64bits. The bound only ever decreases; readers
// may see a slightly stale (larger) value, which makes pruning
// conservative — never wrong.
type SharedBound struct {
	bits atomic.Uint64
}

// NewSharedBound returns a bound initialized to +Inf (nothing pruned).
func NewSharedBound() *SharedBound {
	b := &SharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current published bound.
func (b *SharedBound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Tighten lowers the published bound to v if v is smaller.
func (b *SharedBound) Tighten(v float64) {
	nb := math.Float64bits(v)
	for {
		old := b.bits.Load()
		if nb >= old || b.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// knnSeededParallel is the parallel variant of knnSeeded: the best-first
// traversal stays on the calling goroutine, but leaf evaluation fans out
// in batches to a bounded worker pool. Each worker keeps a private
// result heap and publishes its k-th-best distance into a shared atomic
// bound; the traversal prunes against that bound. Because every worker's
// local k-th best is an upper bound of the union's k-th best, pruning
// against the shared minimum can only be looser than the sequential
// bound — the search may evaluate extra leaves but never skips a needed
// one, so the merged result set is exactly the sequential one (the
// result heap's (Dist, ID) order makes even tie sets identical).
//
// To give the pool a finite bound to prune with, the traversal evaluates
// leaves inline until its own heap holds k results (the same leaves a
// sequential search would start with), then switches to dispatching.
//
// A non-nil ext is used as the shared bound instead of a fresh one, so
// concurrent searches over sibling shards tighten (and prune against)
// one global k-th-best. Every value any participant publishes is an
// upper bound of the union's k-th best, so the same conservativeness
// argument applies across shards and the merged result set stays
// bit-identical to one unsharded search.
func (t *HybridTree) knnSeededParallel(ctx context.Context, m distance.Metric, k int, seed []*treeNode, ext *SharedBound) ([]Result, SearchStats, []*treeNode, error) {
	var stats SearchStats
	stats.LeavesTotal = t.numLeaves
	workers := t.parallelism
	stats.Workers = workers
	bound := ext
	if bound == nil {
		bound = NewSharedBound()
	}

	ch := make(chan []*treeNode, workers)
	heaps := make([]*resultHeap, workers)
	evals := make([]int, workers)
	abandons := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		h := newResultHeap(k)
		heaps[w] = h
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			be := newBatchEvaluator(m, t.store) // scratch buffers are per-goroutine
			n, ab := 0, 0
			for leaves := range ch {
				for _, leaf := range leaves {
					n += len(leaf.items)
					if be != nil {
						// Abandon against the tighter of the worker's own
						// k-th best and the shared published bound: both are
						// upper bounds of the merged k-th best, so a
						// candidate certified past either can never reach
						// the final result set.
						eff := h.bound()
						if sb := bound.Load(); sb < eff {
							eff = sb
						}
						ab += be.evalInto(leaf.items, eff, h)
					} else {
						for _, id := range leaf.items {
							h.offer(Result{ID: id, Dist: m.Eval(t.store.Vector(id))})
						}
					}
				}
				bound.Tighten(h.bound())
			}
			evals[w] = n
			abandons[w] = ab
		}(w)
	}

	local := newResultHeap(k) // the traversal's own heap (warm-up leaves)
	localBE := newBatchEvaluator(m, t.store)
	seen := map[*treeNode]bool{}
	var visited []*treeNode
	var pending []*treeNode
	var pendingItems int
	flush := func() {
		if len(pending) > 0 {
			ch <- pending
			pending = nil
			pendingItems = 0
			stats.ParallelBatches++
		}
	}
	evalLeaf := func(n *treeNode) {
		stats.LeavesVisited++
		visited = append(visited, n)
		if len(local.items) < k {
			// Warm-up: evaluate inline so a finite bound exists before
			// any batch reaches the pool.
			stats.DistanceEvals += len(n.items)
			if localBE != nil {
				stats.BatchedEvals += len(n.items)
				stats.AbandonedEvals += localBE.evalInto(n.items, local.bound(), local)
			} else {
				for _, id := range n.items {
					local.offer(Result{ID: id, Dist: m.Eval(t.store.Vector(id))})
				}
			}
			bound.Tighten(local.bound())
			return
		}
		pending = append(pending, n)
		pendingItems += len(n.items)
		if pendingItems >= parallelBatchItems {
			flush()
		}
	}
	// finish drains the pipeline and merges every worker's heap into the
	// traversal's; it must run exactly once, on every return path.
	finish := func() []Result {
		flush()
		close(ch)
		wg.Wait()
		for w, hw := range heaps {
			local.merge(hw)
			stats.DistanceEvals += evals[w]
			if localBE != nil {
				stats.BatchedEvals += evals[w]
			}
			stats.AbandonedEvals += abandons[w]
		}
		return local.sorted()
	}

	for _, n := range seed {
		if err := ctx.Err(); err != nil {
			return finish(), stats, visited, err
		}
		if n.isLeaf() && !seen[n] {
			seen[n] = true
			stats.CacheSeedLeaves++
			evalLeaf(n)
		}
	}

	q := &nodeQueue{{node: t.root, bound: m.LowerBound(t.root.lo, t.root.hi)}}
	heap.Init(q)
	for q.Len() > 0 {
		faultinject.Fire(faultinject.KNNPop)
		if err := ctx.Err(); err != nil {
			return finish(), stats, visited, err
		}
		e := heap.Pop(q).(nodeEntry)
		if e.bound > bound.Load() {
			break // the bound only tightens: every remaining node stays pruned
		}
		stats.NodesVisited++
		n := e.node
		if n.isLeaf() {
			if !seen[n] {
				seen[n] = true
				evalLeaf(n)
			}
			continue
		}
		for _, child := range []*treeNode{n.left, n.right} {
			if child == nil {
				continue
			}
			if b := m.LowerBound(child.lo, child.hi); b <= bound.Load() {
				heap.Push(q, nodeEntry{node: child, bound: b})
			}
		}
	}
	return finish(), stats, visited, nil
}
