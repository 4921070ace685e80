package cluster

import (
	"math"

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
}

func (o MergeOptions) withDefaults() MergeOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	return o
}

// decideMerge runs Algorithm 3's test for a pair: Hotelling's T²
// equality-of-means test (Eq. 16). The F test needs real degrees of
// freedom: POINT counts, not relevance mass (a pair of heavily-scored
// singletons has weight above p+1 but a zero pooled covariance, and the
// tiny-df F quantile is so large the test would merge anything). When it
// is undefined, the centroid gap under the pooled covariance decides
// against the χ²_p(1-α) contour instead: genuinely distant singletons
// stay separate (they are the point of disjunctive queries) while nearby
// ones still coalesce, so a first round of a few marks can form clusters.
// T² is that same gap scaled by m_i m_j / (m_i + m_j).
func decideMerge(a, b *Cluster, opt MergeOptions) (merge bool, t2, c2 float64) {
	gap := pooledGap(a, b, opt.Scheme)
	if float64(a.N()+b.N())-float64(a.Dim())-1 > 0 {
		t2 = t2Factor(a, b) * gap
		c2 = CriticalValue(a, b, a.Dim(), opt.Alpha)
		return t2 <= c2, t2, c2
	}
	radius := stat.ChiSquareQuantile(1-opt.Alpha, float64(a.Dim()))
	return gap <= radius, gap, radius
}

// MergeStep is one Algorithm-3 merge: the merged pair's T² statistic and
// its critical value c² (the centroid gap and the χ² radius where the F
// test is undefined), and whether the pair merged only to hold
// MaxClusters rather than because the test accepted it.
type MergeStep struct {
	T2, C2 float64
	Forced bool
}

// MergeRecord is what one Merge call decided: its merges in order and
// the number of pairs it tested.
type MergeRecord struct {
	Steps       []MergeStep
	PairsTested int
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
// survivors, and the record says which merges formed them.
func Merge(cs []*Cluster, opt MergeOptions) ([]*Cluster, MergeRecord) {
	opt = opt.withDefaults()
	// Work on a copy.
	work := make([]*Cluster, len(cs))
	copy(work, cs)
	var rec MergeRecord

	// Phase 1: merge while pairs pass the tests at the configured α. The
	// pair with the smallest T²/c² ratio merges first. g is small (tens
	// at most), so the O(g²) rescan per merge is cheap and keeps
	// statistics exact after each merge.
	for len(work) > 1 {
		rec.PairsTested += len(work) * (len(work) - 1) / 2
		i, j, step := closestPair(work, opt, true)
		if i < 0 {
			break
		}
		work = mergeAt(work, i, j)
		rec.Steps = append(rec.Steps, step)
	}

	// Phase 2: if the cluster count still exceeds the bound, merge the
	// statistically closest pair (smallest T²/c² ratio, i.e. the pair
	// that would pass first as α shrinks and c² grows — the paper's
	// "increase critical distance c² using α" requeue loop), one pair at
	// a time, stopping exactly at the bound.
	for opt.MaxClusters > 0 && len(work) > opt.MaxClusters && len(work) > 1 {
		rec.PairsTested += len(work) * (len(work) - 1) / 2
		i, j, step := closestPair(work, opt, false)
		if i < 0 {
			// No finite ratio: merge the first pair.
			i, j, step = 0, 1, MergeStep{Forced: true}
		}
		work = mergeAt(work, i, j)
		rec.Steps = append(rec.Steps, step)
	}
	return work, rec
}

// closestPair scans the pairs (i < j) in order and returns the one with
// the smallest T²/c² ratio — among the pairs the test accepts when
// mustPass — with its merge step; i is -1 when no pair qualifies.
func closestPair(work []*Cluster, opt MergeOptions, mustPass bool) (bi, bj int, step MergeStep) {
	bi, bj = -1, -1
	bestRatio := math.Inf(1)
	for i := 0; i < len(work); i++ {
		for j := i + 1; j < len(work); j++ {
			ok, t2, c2 := decideMerge(work[i], work[j], opt)
			if mustPass && !ok {
				continue
			}
			if ratio := t2 / math.Max(c2, 1e-300); ratio < bestRatio {
				bestRatio, bi, bj = ratio, i, j
				step = MergeStep{T2: t2, C2: c2, Forced: !mustPass}
			}
		}
	}
	return bi, bj, step
}

func mergeAt(work []*Cluster, i, j int) []*Cluster {
	m := MergeStats(work[i], work[j])
	work[i] = m
	return append(work[:j], work[j+1:]...)
}
