package index

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/faultinject"
)

const (
	// parallelMinItems is the smallest store a sweep spreads over more
	// than one worker; below it the whole scan fits in cache and worker
	// hand-off costs more than the evaluations it distributes.
	parallelMinItems = 8192
	// sweepCheckLeaves and sweepCheckShare place the one frontier check of
	// a search after leaf number max(sweepCheckLeaves,
	// numLeaves/sweepCheckShare): late enough that the heap's bound means
	// something, early enough that a search the tree cannot prune has
	// spent 3 % of a traversal finding that out. Searches the tree does
	// prune mostly end before they reach it.
	sweepCheckLeaves = 8
	sweepCheckShare  = 32
	// sweepChunk is the id range one worker takes from the cursor at a
	// time, ctx checked and the shared bound tightened between chunks: a
	// whole number of storage blocks (BlockRows), since chunks start at
	// multiples of it.
	sweepChunk = 4 * BlockRows
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

// sweepPays is the frontier check: it reports whether the queued nodes
// still within bound hold more than half the stored vectors. Then the
// traversal would go on to gather most of the store leaf by leaf, each
// leaf's ids scattered over the block, and one pass in storage order is
// cheaper. A tree that does not index every stored vector (Store.Append
// without Insert) never sweeps: its answer is over its own vectors.
func (t *HybridTree) sweepPays(q nodeQueue, bound float64) bool {
	n := t.store.Len()
	if t.root.count != n {
		return false
	}
	frontier := 0
	for _, e := range q {
		if e.bound <= bound {
			frontier += e.node.count
		}
	}
	return 2*frontier > n
}

// sweep finishes a search whose probe phase (the traversal so far, its
// results in probe) found the tree not pruning: every id [0, n) goes
// once, in storage order, through the metric's batch kernel straight
// over the store's block (scalar Eval for metrics without one) into a
// fresh result heap per worker. Workers take chunks from an atomic
// cursor and check them one storage block at a time against bound =
// min(own k-th best, shared bound), the shared bound being the caller's
// ext or a new one seeded with the probe's. Both are upper bounds of the
// final k-th best. Once bound is armed (under the heap sentinel, where
// the kernel's abandonment also switches on) a block whose box lower
// bound exceeds it is skipped whole: each of its rows has Eval ≥ that
// lower bound > bound. Every other block goes through the kernel, whose
// abandonment is strict too, so the heaps merged by (Dist, ID) are the
// linear scan's answer bit for bit. An unarmed bound — a heap still
// filling, distances that overflowed to +Inf — skips nothing. An
// interrupted sweep returns what it and the probe found, plus ctx.Err().
func (t *HybridTree) sweep(ctx context.Context, m distance.Metric, probe *resultHeap, ext *SharedBound, stats *SearchStats) ([]Result, error) {
	n := t.store.Len()
	shared := ext
	if shared == nil {
		shared = NewSharedBound()
		shared.Tighten(probe.bound())
	}
	workers := 1
	if n >= t.parMinItems {
		workers = t.parallelism
	}
	type part struct {
		h                           *resultHeap
		reached, skipped, abandoned int
	}
	parts := make([]part, workers)
	var cursor atomic.Int64
	// eval offers the rows [first, last) to p's heap, abandoning against
	// bound.
	eval := func(p *part, be *batchEvaluator, first, last int, bound float64) {
		if first == last {
			return
		}
		if be != nil {
			p.abandoned += be.evalRange(first, last, bound, p.h)
			return
		}
		for id := first; id < last; id++ {
			p.h.offer(Result{ID: id, Dist: m.Eval(t.store.Vector(id))})
		}
	}
	work := func(p *part) {
		p.h = newResultHeap(probe.k)
		be := newBatchEvaluator(m, t.store) // scratch buffers are per-goroutine
		for {
			faultinject.Fire(faultinject.KNNSweepChunk)
			lo := int(cursor.Add(sweepChunk)) - sweepChunk
			if lo >= n || ctx.Err() != nil {
				return
			}
			hi := min(lo+sweepChunk, n)
			// Blocks that are not skipped go through the kernel in one call
			// per run of them, as a whole chunk does when none is: a call
			// per block pays the full-scheme kernel's per-call setup and its
			// point-filter gates' warm-up four times as often (≈7 % of a
			// sweep where no block skips, in a CPU profile).
			run := lo
			for first := lo; first < hi; first += BlockRows {
				last := min(first+BlockRows, hi)
				bound := min(p.h.bound(), shared.Load())
				if bound < inf {
					if blo, bhi := t.store.blockBox(first / BlockRows); m.LowerBound(blo, bhi) > bound {
						eval(p, be, run, first, bound)
						p.skipped += last - first
						run = last
					}
				}
			}
			eval(p, be, run, hi, min(p.h.bound(), shared.Load()))
			shared.Tighten(p.h.bound())
			p.reached += hi - lo
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(&parts[w])
		}()
	}
	work(&parts[0])
	wg.Wait()

	h, reached, skipped, abandoned := parts[0].h, parts[0].reached, parts[0].skipped, parts[0].abandoned
	for _, p := range parts[1:] {
		h.merge(p.h)
		reached += p.reached
		skipped += p.skipped
		abandoned += p.abandoned
	}
	evals := reached - skipped
	stats.Swept = 1
	stats.Workers = workers
	stats.LeavesVisited = stats.LeavesTotal
	stats.DistanceEvals += evals
	if _, batched := m.(distance.BatchMetric); batched {
		stats.BatchedEvals += evals
	}
	stats.AbandonedEvals += abandoned
	stats.SkippedEvals += skipped
	if reached == n {
		return h.sorted(), nil
	}
	// Interrupted: the probe's results stand for the ids not reached.
	have := make(map[int]bool, len(h.items))
	for _, r := range h.items {
		have[r.ID] = true
	}
	for _, r := range probe.items {
		if !have[r.ID] {
			h.offer(r)
		}
	}
	return h.sorted(), ctx.Err()
}
