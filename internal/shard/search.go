package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/obs"
)

// SearchMetric fans a query out to every shard with one shared k-th-best
// bound, remaps the per-shard results to global ids, and merges them
// with the deterministic (Dist, ID) order.
//
// Why the merge is bit-identical to one unsharded search: every value
// any shard publishes into the bound is its own current k-th best — an
// upper bound of the union's k-th best — so a candidate pruned or
// abandoned against the bound is certifiably outside the global top-k.
// Each shard therefore returns a superset of its members of the global
// top-k, distances are computed by the same kernels over the same
// vectors, and sorting the union by (Dist, ID) reproduces the
// unsharded result list exactly, ties included.
//
// Cancellation: an already-expired context returns its (wrapped) error
// and no results; an interrupted query merges whatever each shard had
// found (some shards may have finished, others return partial or empty
// sets) and reports it with an error matching both ErrPartialResults
// and the context error.
//
// SearchMetric is the one body behind every retrieval on the set — the
// stateless searches and, as the set's qcluster.SessionSearcher method,
// every session round — on the backend the shards were built with. The
// duration it returns is the scatter-gather's wall-clock, merge
// included.
func (s *Set) SearchMetric(ctx context.Context, m distance.Metric, k int) ([]qcluster.Result, index.SearchStats, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, index.SearchStats{}, 0, fmt.Errorf("shard: search not started: %w", err)
	}
	n := len(s.shards)
	sb := index.NewSharedBound()
	type out struct {
		res   []qcluster.Result
		stats index.SearchStats
		dur   time.Duration
		err   error
	}
	outs := make([]out, n)
	start := time.Now()
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			res, stats, err := s.shards[i].SearchLeg(ctx, m, k, sb)
			for j := range res {
				res[j].ID = global(i, res[j].ID, n)
			}
			outs[i] = out{res: res, stats: stats, dur: time.Since(start), err: err}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}

	// The request's cost profile (nil outside the serving tier) gets the
	// scatter wall-clock as its search stage, one per-shard child span,
	// and the merge stage. Attachment happens here, after the join, on
	// the single request goroutine — the per-shard legs themselves only
	// feed their own shard database's metrics.
	prof := obs.ProfileFromContext(ctx)
	prof.StageAt(obs.StageSearch, start, time.Since(start))
	var stats index.SearchStats
	var merged []qcluster.Result
	partial := false
	for i := range outs {
		stats.Add(outs[i].stats)
		prof.AddShard(i, start, outs[i].dur, outs[i].stats)
		merged = append(merged, outs[i].res...)
		if err := outs[i].err; err != nil {
			if errors.Is(err, qcluster.ErrPartialResults) {
				partial = true
				continue
			}
			s.met.searches.Inc()
			return nil, stats, time.Since(start), fmt.Errorf("shard %d: %w", i, err)
		}
	}
	mergeStart := time.Now()
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist {
			return merged[a].Dist < merged[b].Dist
		}
		return merged[a].ID < merged[b].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	prof.StageAt(obs.StageMerge, mergeStart, time.Since(mergeStart))
	elapsed := time.Since(start)
	s.met.searches.Inc()
	s.met.searchS.Observe(elapsed.Seconds())
	if partial {
		s.met.partials.Inc()
		cause := ctx.Err()
		if cause == nil {
			// A shard reported an interrupt the gather context no longer
			// shows (e.g. a per-shard injected cancel); keep it.
			for i := range outs {
				if outs[i].err != nil {
					cause = outs[i].err
					break
				}
			}
		}
		return merged, stats, elapsed, fmt.Errorf("shard: scatter-gather interrupted after %d results: %w: %w",
			len(merged), qcluster.ErrPartialResults, cause)
	}
	return merged, stats, elapsed, nil
}

// SearchByExampleContext answers a plain k-NN query around an example
// vector across all shards — the sharded equivalent of
// Database.SearchByExampleContext, bit-identical to it over the same
// collection. k <= 0 yields no results.
func (s *Set) SearchByExampleContext(ctx context.Context, example []float64, k int) ([]qcluster.Result, error) {
	if len(example) != s.Dim() {
		s.met.badDim.Inc()
		return nil, fmt.Errorf("shard: example has dimension %d, set has %d: %w",
			len(example), s.Dim(), qcluster.ErrDimensionMismatch)
	}
	res, _, _, err := s.SearchMetric(ctx, qcluster.EuclideanMetric(example), k)
	return res, err
}
