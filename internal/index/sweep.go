package index

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
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

// sweepPays is the frontier check: it returns the vectors under queued
// nodes still within bound and reports whether they are more than half
// the store. Then the traversal would go on to gather most of the store
// leaf by leaf, each leaf's ids scattered over the block, and one pass
// over the block is cheaper. A tree that does not index every stored
// vector (Store.Append without Insert) never sweeps: its answer is over
// its own vectors.
func (t *HybridTree) sweepPays(q nodeQueue, bound float64) (frontier int, pays bool) {
	n := t.store.Len()
	if t.root.count != n {
		return 0, false
	}
	for _, e := range q {
		if e.bound <= bound {
			frontier += e.node.count
		}
	}
	return frontier, 2*frontier > n
}

// blockBound is a storage block and a lower bound of its rows'
// distances under one search's metric: the key of a nearest-first sweep.
type blockBound struct {
	bound float64
	block int
}

// blockPlan is what a search knows of the storage blocks under its
// metric: lower bounds of blocks [0, len(bounds)), each computed once per
// search, and, when the blocks prune better than the tree, the order of
// a nearest-first sweep.
type blockPlan struct {
	bounds []float64
	order  []blockBound
}

// planBlocks asks whether the storage blocks prune better than the tree:
// whether the blocks whose box lower bound is within bound hold fewer
// rows than the tree's frontier. If so the plan's order holds them,
// nearest first by (bound, block). If not, it stops bounding blocks as
// soon as they reach the frontier, and the storage-order sweep a later
// check may start reuses the bounds it has: on a store the blocks do not
// prune, nearly every block is within bound, this pass bounds as many
// blocks as it has rows for the frontier, and computing them twice cost
// a 100k × 8-d search 7 % in a CPU profile. The bound must be armed:
// under a heap still filling, a block whose bound overflowed to +Inf
// would be left off the order though its rows belong on the page.
//
// A distance.TangentMetric's box bound, the full scheme's
// λ_min·MINDIST², keeps nearly every block of a clustered store, which
// left the decision to a few hundred rows either way. So for one the
// box pass bounds every block, and where the kept blocks hold as many
// rows as the frontier, kept blocks are bounded again by the larger of
// their box and ball bounds until enough rows fall past bound for the
// blocks to win; the rest keep their box keys, which are lower bounds
// too, and the sweep's tangent planes bound every block it visits
// anyway (ball-bounding every kept block cost the two-cluster Eq. 5
// cell 10–20 %). A ball that holds one of the metric's centers bounds
// next to nothing (its part's ball bound is 0), and the plan does not
// compute it: on a store whose blocks span many clusters that is most
// blocks.
func (t *HybridTree) planBlocks(m distance.Metric, bound float64, frontier int) *blockPlan {
	s := t.store
	p := &blockPlan{bounds: make([]float64, 0, s.blocks())}
	tm, planes := m.(distance.TangentMetric)
	rows := 0
	for b := range s.blocks() {
		lo, hi := s.blockBox(b)
		lb := m.LowerBound(lo, hi)
		p.bounds = append(p.bounds, lb)
		if lb <= bound {
			if rows += s.blockLen(b); rows >= frontier && !planes {
				return p
			}
		}
	}
	if rows >= frontier {
		centers := distance.Centers(m)
		mid := make(linalg.Vector, s.dim)
		need := rows - frontier + 1 // rows the ball bounds must put past bound
		for b, lb := range p.bounds {
			if lb > bound {
				continue
			}
			if r := s.blockBall(b, mid); !holdsAny(mid, r, centers) {
				lb = max(lb, tm.BallLowerBound(mid, r))
				p.bounds[b] = lb
				if lb > bound {
					rows -= s.blockLen(b)
					if need -= s.blockLen(b); need <= 0 {
						break
					}
				}
			}
		}
		if need > 0 {
			return p
		}
	}
	p.order = make([]blockBound, 0, rows/BlockRows+1)
	for b, lb := range p.bounds {
		if lb <= bound {
			p.order = append(p.order, blockBound{bound: lb, block: b})
		}
	}
	slices.SortFunc(p.order, func(a, b blockBound) int {
		switch { // no NaN is within bound
		case a.bound < b.bound:
			return -1
		case a.bound > b.bound:
			return 1
		}
		return a.block - b.block
	})
	return p
}

// holdsAny reports whether one of centers is within about r of mid.
func holdsAny(mid linalg.Vector, r float64, centers []linalg.Vector) bool {
	for _, c := range centers {
		var d2 float64
		for i, x := range c {
			d := x - mid[i]
			d2 += d * d
		}
		if d2 <= r*r {
			return true
		}
	}
	return false
}

// sweep finishes a search whose probe phase (the traversal so far, its
// results in probe) found the tree not pruning: every storage block is
// visited once, or provably passed over, and its rows go through the
// metric's batch kernel straight over the store's block (scalar Eval for
// metrics without one) into a fresh result heap per worker. Workers take
// runs of sweepChunk/BlockRows blocks from an atomic cursor and check
// each block against bound = min(own k-th best, shared bound), the
// shared bound being the caller's ext or a new one seeded with the
// probe's. Both are upper bounds of the final k-th best, and every skip
// below is strict (a row's Eval is at least the block's lower bound,
// which exceeds bound), so the heaps merged by (Dist, ID) are the linear
// scan's answer bit for bit. An unarmed bound — a heap still filling,
// distances that overflowed to +Inf — skips nothing.
//
// Without a plan's order the blocks go in storage order, and a block
// whose lower bound (the plan's, where it has one, else its box bound)
// exceeds bound is skipped. With an order (planBlocks) only the listed
// blocks go, nearest first, and the first block whose key exceeds bound
// ends the sweep, since every later block is at least as far. There a
// distance.TangentMetric anchors its tangent planes at each block's
// midpoint: a block whose planes' least value over its ball (or its ball
// bound, which comes with them) exceeds bound is skipped, and otherwise
// only the rows its planes do not certify past bound go to the kernel.
// Any other metric skips a block whose ball lower bound exceeds bound.
// Storage-order sweeps do without the row test: there the blocks span
// many clusters, the planes reject little, and the test slowed the
// shuffled mix16 store 1.3×.
// Consecutive blocks that are not skipped go through the kernel in one
// call: a call per block pays the full-scheme kernel's per-call setup
// and its point-filter gates' warm-up four times as often (≈7 % of a
// sweep where no block skips, in a CPU profile). The rows a block's
// planes keep go through it at once, so that the next block's planes
// test against the bound they tightened (on the mix16 store that cuts
// the rows evaluated by a tenth).
//
// Rows skipped, ended, left off the order or rejected by a plane count
// in SkippedEvals, so a sweep that runs to the end reaches all n rows.
// An interrupted sweep returns what it and the probe found, plus
// ctx.Err().
func (t *HybridTree) sweep(ctx context.Context, m distance.Metric, probe *resultHeap, ext *SharedBound, plan *blockPlan, stats *SearchStats) ([]Result, error) {
	s := t.store
	n := s.Len()
	shared := ext
	if shared == nil {
		shared = NewSharedBound()
		shared.Tighten(probe.bound())
	}
	workers := 1
	if n >= t.parMinItems {
		workers = t.parallelism
	}
	positions := s.blocks()
	var bounds []float64
	var order []blockBound
	if plan != nil {
		bounds, order = plan.bounds, plan.order
	}
	listed := n
	var ball distance.BallMetric
	var tm distance.TangentMetric
	if order != nil {
		positions = len(order)
		ball, _ = m.(distance.BallMetric)
		tm, _ = m.(distance.TangentMetric)
		listed = 0
		for _, o := range order {
			listed += s.blockLen(o.block)
		}
	}
	type part struct {
		h                           *resultHeap
		reached, skipped, abandoned int
	}
	parts := make([]part, workers)
	var cursor atomic.Int64
	const chunkBlocks = sweepChunk / BlockRows
	work := func(p *part) {
		p.h = newResultHeap(probe.k)
		be := newBatchEvaluator(m, s) // scratch buffers are per-goroutine
		var mid linalg.Vector
		var tan distance.Tangent
		if ball != nil {
			mid = make(linalg.Vector, s.dim)
		}
		// run is the pending row range [first, last) of blocks not
		// skipped, and kept the rows of one block its planes kept; flush
		// offers them to p's heap, abandoning against the current bound.
		var first, last int
		var kept []int
		flush := func() {
			if first == last && len(kept) == 0 {
				return
			}
			bound := min(p.h.bound(), shared.Load())
			if be != nil {
				if first < last {
					p.abandoned += be.evalRange(first, last, bound, p.h)
				}
				if len(kept) > 0 {
					p.abandoned += be.evalInto(kept, bound, p.h)
				}
			} else {
				for id := first; id < last; id++ {
					p.h.offer(Result{ID: id, Dist: m.Eval(s.Vector(id))})
				}
				for _, id := range kept {
					p.h.offer(Result{ID: id, Dist: m.Eval(s.Vector(id))})
				}
			}
			first, last, kept = 0, 0, kept[:0]
		}
		for {
			faultinject.Fire(faultinject.KNNSweepChunk)
			lo := int(cursor.Add(chunkBlocks)) - chunkBlocks
			if lo >= positions || ctx.Err() != nil {
				return
			}
			hi := min(lo+chunkBlocks, positions)
			for pos := lo; pos < hi; pos++ {
				b := pos
				if order != nil {
					b = order[pos].block
				}
				rows := s.blockLen(b)
				p.reached += rows
				bound := min(p.h.bound(), shared.Load())
				if bound < inf {
					if order == nil {
						var lb float64
						if b < len(bounds) {
							lb = bounds[b]
						} else {
							blo, bhi := s.blockBox(b)
							lb = m.LowerBound(blo, bhi)
						}
						if lb > bound {
							flush()
							p.skipped += rows
							continue
						}
					} else if order[pos].bound > bound {
						// The end: this block and every later one are past
						// bound. Take the unclaimed rest of the order, so
						// no other worker reaches it, and count it all.
						flush()
						shared.Tighten(p.h.bound())
						rest := min(int(cursor.Swap(int64(positions))), positions)
						for _, o := range order[pos+1 : hi] {
							rows += s.blockLen(o.block)
						}
						for _, o := range order[rest:] {
							rows += s.blockLen(o.block)
						}
						p.reached += rows - s.blockLen(b)
						p.skipped += rows
						return
					} else if tm != nil && tm.Anchor(&tan, mid, s.blockBall(b, mid)) {
						if tan.Min() > bound {
							p.skipped += rows
							continue
						}
						at := b * BlockRows
						kept = tan.Keep(s.data[at*s.dim:(at+rows)*s.dim], at, bound, kept)
						p.skipped += rows - len(kept)
						flush()
						continue
					} else if ball != nil && ball.BallLowerBound(mid, s.blockBall(b, mid)) > bound {
						flush()
						p.skipped += rows
						continue
					}
				}
				if b*BlockRows != last {
					flush()
					first = b * BlockRows
				}
				last = b*BlockRows + rows
			}
			flush()
			shared.Tighten(p.h.bound())
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
	// Rows left off the order were passed over before the sweep began.
	reached += n - listed
	skipped += n - listed
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
