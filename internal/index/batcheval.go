package index

import (
	"math"

	"repro/internal/distance"
)

// batchEvaluator adapts a distance.BatchMetric to the index's candidate
// evaluation sites. It gathers candidate rows from the store's contiguous
// block into a reusable scratch buffer and hands the whole batch to the
// metric's bound-aware kernel, so the hot per-dimension loops sweep
// sequential memory and abandon candidates that provably exceed the
// caller's pruning bound.
//
// Identity with the scalar path: an abandoned candidate's true distance
// is strictly greater than the bound it was abandoned against, and every
// bound the index passes (the k-th-best heap distance, the shared
// parallel bound) is an upper bound of the final admission threshold —
// so dropping abandoned candidates can never change the merged result
// set, and non-abandoned values are bit-identical to Eval by the
// BatchMetric contract.
//
// Not safe for concurrent use: each goroutine needs its own evaluator
// (the parallel leaf workers construct one apiece).
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

// eval runs the batch kernel over the given candidate ids. The returned
// slice (valid until the next call) holds one distance per id;
// abandonOn reports whether early abandonment was armed — only then may
// +Inf entries be abandonment markers rather than genuine distances.
// A bound at or above the heap sentinel (heap not full yet, so every
// candidate must be admitted) disables abandonment entirely.
func (b *batchEvaluator) eval(ids []int, bound float64) (dists []float64, abandonOn bool) {
	dim := b.s.dim
	need := len(ids) * dim
	if cap(b.rows) < need {
		b.rows = make([]float64, need)
	}
	if cap(b.out) < len(ids) {
		b.out = make([]float64, len(ids))
	}
	rows := b.rows[:need]
	dists = b.out[:len(ids)]
	flat := b.s.data
	for k, id := range ids {
		copy(rows[k*dim:(k+1)*dim], flat[id*dim:(id+1)*dim])
	}
	if bound >= inf {
		bound = math.Inf(1)
	} else {
		abandonOn = true
	}
	b.bm.EvalBatch(rows, dim, bound, dists)
	return dists, abandonOn
}

// evalInto evaluates ids against bound and offers the survivors to h.
// It returns the number of abandoned candidates (certified farther than
// bound without full evaluation).
func (b *batchEvaluator) evalInto(ids []int, bound float64, h *resultHeap) (abandoned int) {
	dists, abandonOn := b.eval(ids, bound)
	for k, id := range ids {
		if abandonOn && math.IsInf(dists[k], 1) {
			abandoned++
			continue
		}
		h.offer(Result{ID: id, Dist: dists[k]})
	}
	return abandoned
}
