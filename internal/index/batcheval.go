package index

import (
	"math"

	"repro/internal/distance"
)

// batchEvaluator adapts a distance.BatchMetric to the index's candidate
// evaluation sites and hands whole batches to the metric's bound-aware
// kernel, so the hot per-dimension loops sweep sequential memory and
// abandon candidates that provably exceed the caller's pruning bound. A
// leaf's ids are scattered over the store's block, so evalInto gathers
// their rows into a reusable scratch buffer first; a sweep's id range is
// contiguous, so evalRange runs the kernel over the block itself.
//
// Identity with the scalar path: an abandoned candidate's true distance
// is strictly greater than the bound it was abandoned against, and every
// bound the index passes (the k-th-best heap distance, the shared
// bound) is an upper bound of the final admission threshold — so
// dropping abandoned candidates can never change the merged result set,
// and non-abandoned values are bit-identical to Eval by the BatchMetric
// contract.
//
// Not safe for concurrent use: each goroutine needs its own evaluator
// (the sweep's workers construct one apiece).
type batchEvaluator struct {
	bm   distance.BatchMetric
	s    *Store
	rows []float64 // gathered candidate rows, row-major
	out  []float64 // kernel output, one distance per candidate
}

// newBatchEvaluator returns an evaluator for m over s, or nil when m
// does not implement distance.BatchMetric (callers then keep the scalar
// path).
func newBatchEvaluator(m distance.Metric, s *Store) *batchEvaluator {
	bm, ok := m.(distance.BatchMetric)
	if !ok {
		return nil
	}
	return &batchEvaluator{bm: bm, s: s}
}

// evalInto evaluates the given candidate ids against bound and offers
// the survivors to h. It returns the number of abandoned candidates
// (certified farther than bound without full evaluation).
func (b *batchEvaluator) evalInto(ids []int, bound float64, h *resultHeap) (abandoned int) {
	dim := b.s.dim
	need := len(ids) * dim
	if cap(b.rows) < need {
		b.rows = make([]float64, need)
	}
	rows := b.rows[:need]
	flat := b.s.data
	for k, id := range ids {
		copy(rows[k*dim:(k+1)*dim], flat[id*dim:(id+1)*dim])
	}
	return b.run(rows, bound, h, ids, 0)
}

// evalRange is evalInto for the contiguous ids [lo, hi), evaluated in
// place over the store's block.
func (b *batchEvaluator) evalRange(lo, hi int, bound float64, h *resultHeap) (abandoned int) {
	dim := b.s.dim
	return b.run(b.s.data[lo*dim:hi*dim], bound, h, nil, lo)
}

// run hands rows to the batch kernel and offers the survivors to h: row
// k is candidate ids[k], or lo+k when ids is nil. A bound at or above
// the heap sentinel (heap not full yet, so every candidate must be
// admitted) disables abandonment entirely; only when it is armed are
// +Inf entries abandonment markers rather than genuine distances.
func (b *batchEvaluator) run(rows []float64, bound float64, h *resultHeap, ids []int, lo int) (abandoned int) {
	dim := b.s.dim
	n := len(rows) / dim
	if cap(b.out) < n {
		b.out = make([]float64, n)
	}
	dists := b.out[:n]
	abandonOn := bound < inf
	if !abandonOn {
		bound = math.Inf(1)
	}
	b.bm.EvalBatch(rows, dim, bound, dists)
	for k, d := range dists {
		if abandonOn && math.IsInf(d, 1) {
			abandoned++
			continue
		}
		id := lo + k
		if ids != nil {
			id = ids[k]
		}
		h.offer(Result{ID: id, Dist: d})
	}
	return abandoned
}
