package core

// Reference implementations of one feedback round as it was computed
// before the hot path was de-duplicated: the two-pass AgglomerateGap that
// recomputes every centroid distance at every step and then clusters a
// second time up to the cut, the ClassifyAll that rebuilds a classifier
// (pooled inverse, priors, χ² radius) for every marked point, and the
// decideMerge that inverts the pooled covariance afresh for each pair.
// They follow the paper's rules: centroid linkage, Lemma 1's plain
// χ²_p(1-α) radius, and Hotelling's T² as the only merge test (with the
// χ² gap rule where the F test is undefined). They are written against
// the packages' public building blocks only and kept here, next to
// QueryModel.Feedback, because this is the one place all three meet. The
// generated tests below require the production path to agree with them
// bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/stat"
)

// refAgglomerate merges the pair with the closest centroids until target
// clusters remain (target <= 0: one).
func refAgglomerate(points []cluster.Point, target int) []*cluster.Cluster {
	if len(points) == 0 {
		return nil
	}
	work := make([]*cluster.Cluster, len(points))
	for i, p := range points {
		work[i] = cluster.FromPoint(p)
	}
	for len(work) > 1 {
		if target > 0 && len(work) <= target {
			break
		}
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				if d := work[i].Mean.Dist(work[j].Mean); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		work[bi] = cluster.MergeStats(work[bi], work[bj])
		work = append(work[:bj], work[bj+1:]...)
	}
	return work
}

func refAgglomerateGap(points []cluster.Point) []*cluster.Cluster {
	if len(points) <= 1 {
		return refAgglomerate(points, 1)
	}
	// Pass 1: the full merge sequence, for its distances only.
	work := make([]*cluster.Cluster, len(points))
	for i, p := range points {
		work[i] = cluster.FromPoint(p)
	}
	distances := make([]float64, 0, len(points)-1)
	for len(work) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				if d := work[i].Mean.Dist(work[j].Mean); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		distances = append(distances, best)
		work[bi] = cluster.MergeStats(work[bi], work[bj])
		work = append(work[:bj], work[bj+1:]...)
	}
	cut := len(distances)
	prevMax := 0.0
	for i, d := range distances {
		if prevMax > 0 && 2*i >= len(distances) && d/prevMax > 2 {
			cut = i
			break
		}
		if d > prevMax {
			prevMax = d
		}
	}
	// Pass 2: cluster again from scratch, up to the cut.
	return refAgglomerate(points, len(points)-cut)
}

// normalizedWeights returns w_i = m_i / Σ m_k (Sec. 4.2.1).
func normalizedWeights(cs []*cluster.Cluster) []float64 {
	total := cluster.TotalWeight(cs)
	ws := make([]float64, len(cs))
	if total == 0 {
		return ws
	}
	for i, c := range cs {
		ws[i] = c.Weight / total
	}
	return ws
}

// refClassifyAll is Algorithm 2 with everything rebuilt per point.
func refClassifyAll(cs []*cluster.Cluster, points []cluster.Point, opt classify.Options) []*cluster.Cluster {
	work := append([]*cluster.Cluster(nil), cs...)
	for _, p := range points {
		if len(work) == 0 {
			work = append(work, cluster.FromPoint(p))
			continue
		}
		pooledInv := cluster.InverseOf(cluster.PooledAll(work), opt.Scheme)
		ws := normalizedWeights(work)
		radius := stat.ChiSquareQuantile(1-opt.Alpha, float64(work[0].Dim()))
		k, best := 0, math.Inf(-1)
		for i, c := range work {
			lp := -1e300
			if ws[i] > 0 {
				lp = math.Log(ws[i])
			}
			if s := -0.5*pooledInv.QuadForm(p.Vec.Sub(c.Mean)) + lp; i == 0 || s > best {
				k, best = i, s
			}
		}
		if work[k].Mahalanobis(p.Vec, opt.Scheme) < radius {
			work[k].Add(p)
		} else {
			work = append(work, cluster.FromPoint(p))
		}
	}
	return work
}

func refDecideMerge(a, b *cluster.Cluster, opt cluster.MergeOptions) (merge bool, t2, c2 float64) {
	inv := cluster.InverseOf(cluster.PooledTwo(a, b), opt.Scheme)
	if float64(a.N()+b.N())-float64(a.Dim())-1 > 0 {
		t2 = a.Weight * b.Weight / (a.Weight + b.Weight) * inv.QuadForm(a.Mean.Sub(b.Mean))
		c2 = cluster.CriticalValue(a, b, a.Dim(), opt.Alpha)
		return t2 <= c2, t2, c2
	}
	gap := inv.QuadForm(a.Mean.Sub(b.Mean))
	radius := stat.ChiSquareQuantile(1-opt.Alpha, float64(a.Dim()))
	return gap <= radius, gap, radius
}

func refMerge(cs []*cluster.Cluster, opt cluster.MergeOptions) []*cluster.Cluster {
	work := append([]*cluster.Cluster(nil), cs...)
	closest := func(mustPass bool) (bi, bj int) {
		bi, bj = -1, -1
		bestRatio := math.Inf(1)
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				ok, t2, c2 := refDecideMerge(work[i], work[j], opt)
				if mustPass && !ok {
					continue
				}
				if ratio := t2 / math.Max(c2, 1e-300); ratio < bestRatio {
					bestRatio, bi, bj = ratio, i, j
				}
			}
		}
		return bi, bj
	}
	mergeAt := func(i, j int) {
		work[i] = cluster.MergeStats(work[i], work[j])
		work = append(work[:j], work[j+1:]...)
	}
	for len(work) > 1 {
		bi, bj := closest(true)
		if bi < 0 {
			break
		}
		mergeAt(bi, bj)
	}
	for opt.MaxClusters > 0 && len(work) > opt.MaxClusters && len(work) > 1 {
		bi, bj := closest(false)
		if bi < 0 {
			bi, bj = 0, 1
		}
		mergeAt(bi, bj)
	}
	return work
}

// refModel is QueryModel.Feedback over the reference pieces.
type refModel struct {
	clusters []*cluster.Cluster
	seen     map[int]bool
	opt      Options // defaulted
}

func (m *refModel) feedback(points []cluster.Point) {
	var fresh []cluster.Point
	for _, p := range points {
		if p.ID >= 0 && m.seen[p.ID] || p.Score <= 0 {
			continue
		}
		if p.ID >= 0 {
			m.seen[p.ID] = true
		}
		fresh = append(fresh, p)
	}
	if len(fresh) == 0 {
		return
	}
	switch {
	case len(m.clusters) > 0:
		m.clusters = refClassifyAll(m.clusters, fresh, classify.Options{
			Scheme: m.opt.Scheme, Alpha: m.opt.Alpha,
		})
	case len(fresh) <= 4:
		m.clusters = nil
		for _, p := range fresh {
			m.clusters = append(m.clusters, cluster.FromPoint(p))
		}
	default:
		m.clusters = refAgglomerateGap(fresh)
	}
	m.clusters = refMerge(m.clusters, cluster.MergeOptions{
		Scheme: m.opt.Scheme, Alpha: m.opt.Alpha, MaxClusters: m.opt.MaxClusters,
	})
}

// genPoints draws n scored points in `dim` dimensions from up to four
// modes. Roughly a fifth of the inputs sit on an integer lattice, so many
// pairwise distances tie exactly, and a fifth repeat earlier vectors, so
// distances of zero and singular covariances occur.
func genPoints(rng *rand.Rand, n, dim, idBase int) []cluster.Point {
	modes := 1 + rng.Intn(4)
	lattice := rng.Intn(5) == 0
	scores := []float64{1, 3, 0.5, 2.25}
	ps := make([]cluster.Point, n)
	for i := range ps {
		v := make(linalg.Vector, dim)
		switch {
		case i > 0 && rng.Intn(5) == 0:
			copy(v, ps[rng.Intn(i)].Vec)
		case lattice:
			for d := range v {
				v[d] = float64(rng.Intn(3))
			}
		default:
			for d := range v {
				v[d] = rng.NormFloat64()
			}
			v[rng.Intn(dim)] += 7 * float64(rng.Intn(modes))
		}
		ps[i] = cluster.Point{ID: idBase + i, Vec: v, Score: scores[rng.Intn(len(scores))]}
	}
	return ps
}

// sameClusters requires equal membership order and bit-equal statistics.
func sameClusters(got, want []*cluster.Cluster) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d clusters, reference has %d", len(got), len(want))
	}
	bits := math.Float64bits
	for c := range want {
		g, w := got[c], want[c]
		if len(g.Points) != len(w.Points) {
			return fmt.Errorf("cluster %d: %d points, reference has %d", c, len(g.Points), len(w.Points))
		}
		for i := range w.Points {
			if g.Points[i].ID != w.Points[i].ID {
				return fmt.Errorf("cluster %d member %d: id %d, reference has %d", c, i, g.Points[i].ID, w.Points[i].ID)
			}
		}
		if bits(g.Weight) != bits(w.Weight) {
			return fmt.Errorf("cluster %d: weight %v, reference has %v", c, g.Weight, w.Weight)
		}
		for i := range w.Mean {
			if bits(g.Mean[i]) != bits(w.Mean[i]) {
				return fmt.Errorf("cluster %d: mean[%d] %v, reference has %v", c, i, g.Mean[i], w.Mean[i])
			}
		}
		for i := range w.Scatter.Data {
			if bits(g.Scatter.Data[i]) != bits(w.Scatter.Data[i]) {
				return fmt.Errorf("cluster %d: scatter[%d] %v, reference has %v", c, i, g.Scatter.Data[i], w.Scatter.Data[i])
			}
		}
	}
	return nil
}

// TestAgglomerationMatchesReference: the single-pass dendrogram (one
// distance matrix, the gap cut taken on the way) builds the clusters of
// the two-pass reference, on inputs with ties, duplicates and 0-4
// points. 2 entry points x 160 seeds.
func TestAgglomerationMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := []int{3, 16}[seed%2]
		n := rng.Intn(36)
		if seed%4 == 0 {
			n = rng.Intn(5)
		}
		pts := genPoints(rng, n, dim, 0)
		if err := sameClusters(cluster.AgglomerateGap(pts), refAgglomerateGap(pts)); err != nil {
			t.Fatalf("seed %d n %d dim %d: AgglomerateGap: %v", seed, n, dim, err)
		}
		target := rng.Intn(4)
		if err := sameClusters(cluster.Agglomerate(pts, target), refAgglomerate(pts, target)); err != nil {
			t.Fatalf("seed %d n %d dim %d: Agglomerate(%d): %v", seed, n, dim, target, err)
		}
	}
}

type hit struct {
	id   int
	dist float64
}

// topPage is the linear-scan oracle: scalar Eval, ordered by (dist, id).
func topPage(m *QueryModel, store []linalg.Vector, k int) []hit {
	metric := m.Metric()
	page := make([]hit, len(store))
	for id, v := range store {
		page[id] = hit{id, metric.Eval(v)}
	}
	sort.Slice(page, func(i, j int) bool {
		if page[i].dist != page[j].dist {
			return page[i].dist < page[j].dist
		}
		return page[i].id < page[j].id
	})
	return page[:k]
}

// TestFeedbackSessionsMatchReference plays multi-round sessions (first
// rounds of 1-35 marks, later rounds of 0-20 fresh and some repeated
// marks, both schemes, dims 3 and 16, every option that reaches
// Algorithms 2-3) through QueryModel.Feedback and through the reference
// round, and after every round requires the same clusters bit for bit and
// the same top-100 page of a 600-vector store.
func TestFeedbackSessionsMatchReference(t *testing.T) {
	sessions := 240
	if testing.Short() {
		sessions = 60
	}
	for seed := int64(0); seed < int64(sessions); seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		dim := []int{3, 16}[seed%2]
		opt := Options{
			Scheme:      []cluster.Scheme{cluster.Diagonal, cluster.FullInverse}[(seed/2)%2],
			Alpha:       []float64{0, 0.01, 0.2}[rng.Intn(3)],
			MaxClusters: []int{0, -1, 2}[rng.Intn(3)],
		}
		store := make([]linalg.Vector, 600)
		for i := range store {
			store[i] = genPoints(rng, 1, dim, 0)[0].Vec
		}
		got := New(opt)
		want := &refModel{seen: map[int]bool{}, opt: got.Options()}
		var marked []cluster.Point
		for round := 0; round < 2+rng.Intn(4); round++ {
			n := rng.Intn(21)
			if round == 0 {
				n = 1 + rng.Intn(35)
				if seed%3 == 0 {
					n = 1 + rng.Intn(4)
				}
			}
			marks := genPoints(rng, n, dim, 100*round)
			if len(marked) > 0 { // re-marks of absorbed images are skipped by ID
				marks = append(marks, marked[rng.Intn(len(marked))])
			}
			marked = append(marked, marks...)
			// Each side gets its own copy: Algorithm 2 adds to clusters in place.
			got.Feedback(append([]cluster.Point(nil), marks...))
			want.feedback(append([]cluster.Point(nil), marks...))
			if err := sameClusters(got.Clusters(), want.clusters); err != nil {
				t.Fatalf("seed %d round %d (%+v, dim %d): %v", seed, round, opt, dim, err)
			}
			ref := &QueryModel{clusters: want.clusters, opt: want.opt}
			gp, wp := topPage(got, store, 100), topPage(ref, store, 100)
			for r := range wp {
				if gp[r].id != wp[r].id || math.Float64bits(gp[r].dist) != math.Float64bits(wp[r].dist) {
					t.Fatalf("seed %d round %d rank %d: got %+v, reference %+v", seed, round, r, gp[r], wp[r])
				}
			}
		}
	}
}
