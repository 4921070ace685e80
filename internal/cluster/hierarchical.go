package cluster

import "math"

// Agglomerate runs bottom-up hierarchical clustering over scored points
// under centroid linkage: every point starts as its own cluster, and the
// pair with the closest weighted centroids merges until target clusters
// remain (target <= 0 merges everything into one). This is the paper's
// basic clustering method (Sec. 3.1); centroid linkage groups points into
// the hyperspherical regions its initial clustering asks for (Sec. 4.1).
func Agglomerate(points []Point, target int) []*Cluster {
	return agglomerate(points, func(live int, _ float64) bool {
		return target > 0 && live <= target
	})
}

// agglomerate is the merge loop behind Agglomerate and AgglomerateGap.
// Before each merge it asks stop(live clusters, closest-pair distance) and
// returns the current clusters when told to. It keeps one pairwise
// centroid-distance matrix and, after a merge, refreshes only the merged
// cluster's row and column. The closest pair is the first minimum in
// (i, j) scan order over the live clusters, i < j, exactly as if every
// distance were recomputed from scratch each step, so ties break the same
// way.
func agglomerate(points []Point, stop func(live int, best float64) bool) []*Cluster {
	n := len(points)
	if n == 0 {
		return nil
	}
	work := make([]*Cluster, n)
	for i, p := range points {
		work[i] = FromPoint(p)
	}
	// slot[a] is the matrix row/column of work[a]. Slots stay ascending
	// because a merged cluster keeps the lower slot and removal preserves
	// order, so dist[slot[a]*n+slot[b]] with a < b is always the upper
	// triangle.
	slot := make([]int, n)
	dist := make([]float64, n*n)
	for i := range work {
		slot[i] = i
		for j := i + 1; j < n; j++ {
			dist[i*n+j] = work[i].Mean.Dist(work[j].Mean)
		}
	}
	for len(work) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := range work {
			row := dist[slot[i]*n:]
			for j := i + 1; j < len(work); j++ {
				if d := row[slot[j]]; d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		if stop(len(work), best) {
			break
		}
		work[bi] = MergeStats(work[bi], work[bj])
		work = append(work[:bj], work[bj+1:]...)
		slot = append(slot[:bj], slot[bj+1:]...)
		for k := range work {
			switch {
			case k < bi:
				dist[slot[k]*n+slot[bi]] = work[k].Mean.Dist(work[bi].Mean)
			case k > bi:
				dist[slot[bi]*n+slot[k]] = work[bi].Mean.Dist(work[k].Mean)
			}
		}
	}
	return work
}

// AgglomerateGap runs agglomerative clustering with an automatic
// stopping rule: it watches the sequence of merge distances and cuts it
// just before the first merge whose distance is more than twice the
// largest distance seen so far. A unimodal point set has a smoothly
// growing merge-distance sequence and collapses to one cluster; a set with
// well-separated modes shows a sharp jump at the first cross-mode
// merge and is cut there, yielding one cluster per mode. This makes the
// initial clustering of the relevant set (Sec. 4.1) self-calibrating: no
// distance threshold has to be guessed.
//
// Cutting at the first (not the largest) jump keeps every mode separate
// when there are more than two. Only the second half of the n-1 merges is
// eligible: cross-mode merges always happen late, while early ratios are
// dominated by noise (e.g. two nearly coincident points make the first
// distance vanishingly small). Both conditions depend only on merges
// already made, so the cut is taken in the same single pass that builds
// the clusters — nothing is replayed.
func AgglomerateGap(points []Point) []*Cluster {
	step, prevMax := 0, 0.0
	return agglomerate(points, func(_ int, d float64) bool {
		if prevMax > 0 && 2*step >= len(points)-1 && d/prevMax > 2 {
			return true
		}
		if d > prevMax {
			prevMax = d
		}
		step++
		return false
	})
}
