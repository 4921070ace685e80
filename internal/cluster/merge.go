package cluster

import (
	"math"

	"repro/internal/obs"
	"repro/internal/stat"
)

// MergeOptions configures Algorithm 3 (cluster merging).
type MergeOptions struct {
	// Scheme selects diagonal or full-inverse pooled covariance.
	Scheme Scheme
	// Alpha is the significance level α of the T² test. Smaller α gives a
	// larger critical distance c², i.e. more merging (Sec. 4.3).
	Alpha float64
	// MaxClusters, when > 0, keeps merging the statistically closest
	// pairs until the number of clusters is at most this bound — the
	// paper's "increase critical distance c² using α" requeue loop
	// (Algorithm 3 lines 7-11).
	MaxClusters int
	// DisableOverlap turns off the ellipsoid-overlap merge criterion,
	// leaving only the T² test (with its small-sample fallback) — the
	// paper's Algorithm 3 read literally. Exposed for ablation studies;
	// see decideMerge for why the criterion exists.
	DisableOverlap bool
	// Trace, when non-nil, receives one "merge.accept" event per
	// test-passing merge, one "merge.forced" event per bound-enforcing
	// merge, and a closing "merge.done" summary (pairs tested, accepted,
	// forced, final cluster count).
	Trace *obs.Span
}

func (o MergeOptions) withDefaults() MergeOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	return o
}

// decideMerge runs the merge tests for a pair. Two criteria, either of
// which merges:
//
//  1. Hotelling's T² equality-of-means test (Eq. 16), when defined.
//  2. The ellipsoid-overlap criterion: the centroid gap measured under
//     the pooled WITHIN-covariance lies inside the χ²_p(1-α) contour —
//     the same quadratic form as the small-sample fallback, applied at
//     every sample size. This is what keeps Algorithm 3 from
//     over-splitting a densely sampled mode: fragments of one region
//     have means that differ *statistically* (T² rejects them at any
//     n), but their gap is small relative to their within-spread, so
//     they describe one perceptual region and must stay one query
//     cluster.
//
// When the F test is undefined (too few points), criterion 2 alone
// decides: genuinely distant singleton clusters stay separate (they are
// the point of disjunctive queries) while nearby fragments still coalesce.
// Both criteria share one pooled inverse: T² is the same gap scaled by
// m_i m_j / (m_i + m_j).
func decideMerge(a, b *Cluster, opt MergeOptions) (merge bool, t2, c2 float64) {
	gap := pooledGap(a, b, opt.Scheme)
	radius := stat.ChiSquareQuantile(1-opt.Alpha, float64(a.Dim()))
	// The F test needs real degrees of freedom: POINT counts, not
	// relevance mass (a pair of heavily-scored singletons has weight
	// above p+1 but a zero pooled covariance, and the tiny-df F quantile
	// is so large the test would merge anything).
	if float64(a.N()+b.N())-float64(a.Dim())-1 > 0 {
		t2 = t2Factor(a, b) * gap
		c2 = CriticalValue(a, b, a.Dim(), opt.Alpha)
		return t2 <= c2 || !opt.DisableOverlap && gap <= radius, t2, c2
	}
	// DisableOverlap (literal Algorithm 3) still needs this small-sample
	// rule: without it singletons could never form initial clusters.
	return gap <= radius, gap, radius
}

// Merge implements Algorithm 3. Starting from the given clusters it
// repeatedly merges the pair with the smallest T²/c² ratio while the
// tests accept the pair, recomputing statistics incrementally via
// MergeStats (Eq. 11-13). If MaxClusters > 0 and the count is still above
// it once no pair passes, the statistically closest pairs keep merging
// until the bound holds — the paper's "increase critical distance c²
// using α" requeue loop.
//
// The input slice is not modified; the result holds merged clusters plus
// survivors.
func Merge(cs []*Cluster, opt MergeOptions) []*Cluster {
	opt = opt.withDefaults()
	// Work on a copy.
	work := make([]*Cluster, len(cs))
	copy(work, cs)
	var tested, accepted, forced int

	// Phase 1: merge while pairs pass the tests at the configured α. The
	// pair with the smallest T²/c² ratio merges first. g is small (tens
	// at most), so the O(g²) rescan per merge is cheap and keeps
	// statistics exact after each merge.
	for len(work) > 1 {
		bestI, bestJ := -1, -1
		bestRatio := math.Inf(1)
		var bestT2, bestC2 float64
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				tested++
				ok, t2, c2 := decideMerge(work[i], work[j], opt)
				if !ok {
					continue
				}
				ratio := t2 / math.Max(c2, 1e-300)
				if ratio < bestRatio {
					bestRatio, bestI, bestJ = ratio, i, j
					bestT2, bestC2 = t2, c2
				}
			}
		}
		if bestI < 0 {
			break
		}
		work = mergeAt(work, bestI, bestJ)
		accepted++
		if opt.Trace.Enabled() {
			opt.Trace.Event("merge.accept",
				obs.F("t2", bestT2), obs.F("c2", bestC2),
				obs.F("clusters", len(work)))
		}
	}

	// Phase 2: if the cluster count still exceeds the bound, merge the
	// statistically closest pair (smallest T²/c² ratio, i.e. the pair
	// that would pass first as α shrinks and c² grows — the paper's
	// "increase critical distance c² using α" requeue loop), one pair at
	// a time, stopping exactly at the bound.
	if opt.MaxClusters > 0 {
		for len(work) > opt.MaxClusters && len(work) > 1 {
			bestI, bestJ := 0, 1
			bestRatio := math.Inf(1)
			var bestT2, bestC2 float64
			for i := 0; i < len(work); i++ {
				for j := i + 1; j < len(work); j++ {
					tested++
					_, t2, c2 := decideMerge(work[i], work[j], opt)
					ratio := t2 / math.Max(c2, 1e-300)
					if ratio < bestRatio {
						bestRatio, bestI, bestJ = ratio, i, j
						bestT2, bestC2 = t2, c2
					}
				}
			}
			work = mergeAt(work, bestI, bestJ)
			forced++
			if opt.Trace.Enabled() {
				opt.Trace.Event("merge.forced",
					obs.F("t2", bestT2), obs.F("c2", bestC2),
					obs.F("clusters", len(work)))
			}
		}
	}
	if opt.Trace.Enabled() {
		opt.Trace.Event("merge.done",
			obs.F("pairs_tested", tested), obs.F("accepted", accepted),
			obs.F("forced", forced), obs.F("clusters", len(work)))
	}
	return work
}

func mergeAt(work []*Cluster, i, j int) []*Cluster {
	m := MergeStats(work[i], work[j])
	work[i] = m
	return append(work[:j], work[j+1:]...)
}
