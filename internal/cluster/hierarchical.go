package cluster

import (
	"math"

	"repro/internal/linalg"
)

// Linkage selects the inter-cluster distance used by agglomerative
// clustering.
type Linkage int

const (
	// SingleLinkage uses the minimum pairwise point distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage uses the maximum pairwise point distance.
	CompleteLinkage
	// AverageLinkage uses the mean pairwise point distance (UPGMA).
	AverageLinkage
	// CentroidLinkage uses the distance between weighted centroids. This
	// is the default: it groups points into the hyperspherical regions
	// the paper's initial clustering asks for (Sec. 4.1).
	CentroidLinkage
)

// HierarchicalOptions configures Agglomerate.
type HierarchicalOptions struct {
	Linkage Linkage
	// TargetClusters stops merging when this many clusters remain
	// (0 means "no count bound").
	TargetClusters int
	// DistanceCutoff stops merging once the closest pair is farther than
	// this Euclidean distance (0 means "no cutoff"). With both bounds
	// zero, everything merges into one cluster.
	DistanceCutoff float64
}

// Agglomerate runs bottom-up hierarchical clustering over scored points:
// every point starts as its own cluster, and the closest pair (under the
// chosen linkage) merges until a stopping bound holds. This is the
// paper's basic clustering method (Sec. 3.1) used to form the initial
// clusters of the first feedback iteration.
func Agglomerate(points []Point, opt HierarchicalOptions) []*Cluster {
	return agglomerate(points, opt.Linkage, func(live int, best float64) bool {
		return opt.TargetClusters > 0 && live <= opt.TargetClusters ||
			opt.DistanceCutoff > 0 && best > opt.DistanceCutoff
	})
}

// agglomerate is the merge loop behind Agglomerate and AgglomerateGap.
// Before each merge it asks stop(live clusters, closest-pair distance) and
// returns the current clusters when told to. It keeps one pairwise
// linkage-distance matrix and, after a merge, refreshes only the merged
// cluster's row and column. The closest pair is the first minimum in
// (i, j) scan order over the live clusters, i < j, exactly as if every
// distance were recomputed from scratch each step, so ties break the same
// way.
func agglomerate(points []Point, l Linkage, stop func(live int, best float64) bool) []*Cluster {
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
			dist[i*n+j] = linkageDistance(work[i], work[j], l)
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
				dist[slot[k]*n+slot[bi]] = linkageDistance(work[k], work[bi], l)
			case k > bi:
				dist[slot[bi]*n+slot[k]] = linkageDistance(work[bi], work[k], l)
			}
		}
	}
	return work
}

func linkageDistance(a, b *Cluster, l Linkage) float64 {
	switch l {
	case SingleLinkage:
		best := math.Inf(1)
		for _, pa := range a.Points {
			for _, pb := range b.Points {
				if d := pa.Vec.Dist(pb.Vec); d < best {
					best = d
				}
			}
		}
		return best
	case CompleteLinkage:
		worst := 0.0
		for _, pa := range a.Points {
			for _, pb := range b.Points {
				if d := pa.Vec.Dist(pb.Vec); d > worst {
					worst = d
				}
			}
		}
		return worst
	case AverageLinkage:
		var sum float64
		var n int
		for _, pa := range a.Points {
			for _, pb := range b.Points {
				sum += pa.Vec.Dist(pb.Vec)
				n++
			}
		}
		if n == 0 {
			return math.Inf(1)
		}
		return sum / float64(n)
	case CentroidLinkage:
		return a.Mean.Dist(b.Mean)
	default:
		panic("cluster: unknown linkage")
	}
}

// AgglomerateGap runs agglomerative clustering with an automatic
// stopping rule: it watches the sequence of merge distances and cuts it
// just before the first merge whose distance jumps by more than gapFactor
// over the largest distance seen so far. A unimodal point set has a
// smoothly growing merge-distance sequence and collapses to one cluster; a
// set with well-separated modes shows a sharp jump at the first cross-mode
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
//
// gapFactor defaults to 2 when <= 1.
func AgglomerateGap(points []Point, linkage Linkage, gapFactor float64) []*Cluster {
	if gapFactor <= 1 {
		gapFactor = 2
	}
	step, prevMax := 0, 0.0
	return agglomerate(points, linkage, func(_ int, d float64) bool {
		if prevMax > 0 && 2*step >= len(points)-1 && d/prevMax > gapFactor {
			return true
		}
		if d > prevMax {
			prevMax = d
		}
		step++
		return false
	})
}

// Centroids extracts the centroid of every cluster.
func Centroids(cs []*Cluster) []linalg.Vector {
	out := make([]linalg.Vector, len(cs))
	for i, c := range cs {
		out[i] = c.Centroid()
	}
	return out
}
