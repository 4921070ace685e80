package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// forceParallel returns a search view of tree whose sweeps share their
// chunks out over workers goroutines regardless of store size.
func forceParallel(t *HybridTree, workers int) *HybridTree {
	view := *t
	view.parallelism = resolveParallelism(workers)
	view.parMinItems = 0
	return &view
}

// probeEvals bounds the evaluations an unseeded search over a
// bulk-loaded tree spends before its frontier check.
func probeEvals(t *HybridTree) int {
	return max(sweepCheckLeaves, t.numLeaves/sweepCheckShare) * t.leafCapacity
}

// sweepMetrics is testMetrics plus the families the sweep treats
// differently: one- and three-part disjunctives and an Aggregate, which
// has no batch kernel and takes the scalar sweep.
func sweepMetrics(rng *rand.Rand, dim int) map[string]distance.Metric {
	ms := testMetrics(rng, dim)
	dj := ms["disjunctive"].(*distance.Disjunctive)
	diag := ms["quad-diag"].(*distance.Quadratic)
	ms["disjunctive-3"] = distance.NewDisjunctive(
		[]*distance.Quadratic{dj.Parts[0], diag, dj.Parts[1]}, []float64{1, 3, 2})
	// What a one-cluster session builds: its aggregate can round an ulp
	// under its only part, and a sweep meets the vector that set the
	// probe's bound a second time.
	ms["disjunctive-1"] = distance.NewDisjunctive([]*distance.Quadratic{dj.Parts[0]}, []float64{3})
	ms["aggregate"] = distance.NewAggregate(
		[]distance.Metric{ms["euclidean"], diag, dj.Parts[1]}, -2)
	return ms
}

// Whatever the collection, metric family, k, worker count and seeding —
// whether the search ends in the tree or as a sweep, whether the sweep
// goes in storage order or nearest block first, and whether it skips
// storage blocks or not — every page must be the linear scan's, bit for
// bit. The cases are generated: n, dim, leaf size and the queries are
// drawn per trial, 1 or 4 workers per case, and k spans 1, a page, an
// unfilled heap at the frontier check, k = n and k > n. Each trial lays
// its vectors out three ways: Gaussian noise, a synth.Mixture stored
// category by category (whose blocks a sweep skips) and the same mixture
// shuffled (whose blocks it cannot). Between two rounds of searches 1–70
// vectors are appended, into a partial tail block, to the store and to
// the two half stores searched under one shared bound. The last trials
// are drawn where the nearest-first sweep runs: 1 800–2 500 vectors in
// 64-vector categories, stored category by category, dim 12–20 and
// 8-vector leaves, so that a tree of more than 256 leaves holds a full
// heap at leaf 8 for k up to 64.
func TestSweepMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	trials, nearTrials := 4, 2
	if testing.Short() {
		trials = 1
	}
	var c sweepCounts
	skippedBy := map[string]int{}
	for trial := 0; trial < trials+nearTrials; trial++ {
		dim := 2 + rng.Intn(23)
		perCat := 16 + rng.Intn(80)
		cats := 150/perCat + rng.Intn(1350/perCat)
		nodeSize, page := 256<<rng.Intn(5), 100
		if trial >= trials {
			dim, perCat, cats = 12+rng.Intn(9), 64, 28+rng.Intn(12)
			nodeSize, page = 8*8*dim, 32
		}
		mixture, _ := synth.Mixture[linalg.Vector](rng, cats, perCat, dim, 5)
		n := len(mixture)
		shuffled := make([]linalg.Vector, n)
		for i, p := range rng.Perm(n) {
			shuffled[p] = mixture[i]
		}
		layouts := []struct {
			name string
			vecs []linalg.Vector
		}{
			{"gaussian", synth.Gaussian[linalg.Vector](rng, n, dim, 3)},
			{"mixture", mixture},
			{"shuffled", shuffled},
		}
		if trial >= trials {
			layouts = layouts[1:2] // the layout nearest-first sweeps are for
		}
		for _, layout := range layouts {
			s := newStore(layout.vecs)
			tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: nodeSize})
			// The same collection as two trees under one shared bound: even
			// storage blocks in one store, odd in the other, at half the leaf
			// size so that each half has as many leaves as the whole.
			halves, globals := splitStore(t, s, max(256, nodeSize/2))
			ms := sweepMetrics(rng, dim)
			ms["euclidean-at-row"] = euclid(s.Vector(rng.Intn(n)).Clone())
			if trial >= trials {
				for parts := 2; parts <= 3; parts++ {
					ms[fmt.Sprintf("eq5-%d-marked", parts)] = markedEq5(rng, layout.vecs, perCat, parts)
				}
			}
			for round := 0; round < 2; round++ {
				label := fmt.Sprintf("trial %d %s n=%d dim=%d round %d", trial, layout.name, s.Len(), dim, round)
				skipped := checkSweepPages(t, rng, label, tree, halves, globals, ms, page, &c)
				skippedBy[layout.name] += skipped
				for range 1 + rng.Intn(70) {
					appendRow(t, rng, tree, halves, &globals, s.Vector(rng.Intn(s.Len())))
				}
				checkBlockBoxes(t, label, s)
			}
		}
	}
	t.Logf("%d searches swept (%d nearest block first, %d of them Eq. 5 over marked categories), %d stayed in the tree, %d shared-bound legs swept nearest first; rows skipped by layout: %v",
		c.swept, c.nearest, c.nearestMarked, c.stayed, c.nearestLegs, skippedBy)
	if c.swept == 0 || c.stayed == 0 || c.nearest == 0 || c.nearest == c.swept || c.nearestLegs == 0 || c.nearestMarked == 0 {
		t.Fatalf("generator missed a regime: %d swept, %d of them nearest first (%d Eq. 5 over marked categories), %d stayed in the tree, %d legs nearest first",
			c.swept, c.nearest, c.nearestMarked, c.stayed, c.nearestLegs)
	}
	if skippedBy["mixture"] == 0 {
		t.Fatal("no sweep over a category-ordered store skipped a block")
	}
}

type sweepCounts struct{ swept, nearest, nearestMarked, stayed, nearestLegs int }

// markedEq5 is the Eq. 5 metric a session builds after marking every
// vector of parts distinct categories of vecs, stored category by
// category in runs of perCat: one full-scheme part per category, shrunk
// as a session shrinks it. Its nearest-first sweeps test rows against
// the parts' tangent planes through Eq. 5.
func markedEq5(rng *rand.Rand, vecs []linalg.Vector, perCat, parts int) distance.Metric {
	cs := make([]*cluster.Cluster, 0, parts)
	for _, cat := range rng.Perm(len(vecs) / perCat)[:parts] {
		pts := make([]cluster.Point, perCat)
		for j := range pts {
			id := cat*perCat + j
			pts[j] = cluster.Point{ID: id, Vec: vecs[id], Score: 1 + rng.Float64()}
		}
		cs = append(cs, cluster.FromPoints(pts))
	}
	m, _ := distance.FromClustersShrunkInfo(cs, cluster.FullInverse, float64(len(vecs[0])+1))
	return m
}

// nearestFirst reports whether a search that visited the given leaves
// swept nearest block first: it left the tree at the early check, before
// the late one.
func nearestFirst(tree *HybridTree, stats SearchStats, visited []*treeNode) bool {
	return stats.Swept == 1 && len(visited) < max(sweepCheckLeaves, tree.numLeaves/sweepCheckShare)
}

// checkSweepPages runs every metric of ms at five k — 1, up to page,
// n/2, n and n+7 — against the tree — unseeded, seeded from its own
// leaves, and as two half trees under one shared bound — and fails
// unless each page is the linear scan's. It returns the rows the
// unseeded searches skipped.
func checkSweepPages(t *testing.T, rng *rand.Rand, label string, tree *HybridTree, halves [2]*HybridTree, globals [2][]int, ms map[string]distance.Metric, page int, c *sweepCounts) (skipped int) {
	t.Helper()
	n := tree.store.Len()
	scan := NewLinearScan(tree.store)
	for name, m := range ms {
		for _, k := range []int{1, 1 + rng.Intn(page), n / 2, n, n + 7} {
			want, _ := scan.KNN(m, k)
			workers := 1 + 3*rng.Intn(2)
			label := fmt.Sprintf("%s %s k=%d workers=%d", label, name, k, workers)
			view := forceParallel(tree, workers)

			got, stats, visited, _ := view.knnSeeded(context.Background(), m, k, nil, nil)
			assertSameKNN(t, label, want, got)
			skipped += stats.SkippedEvals
			if stats.Swept == 1 {
				c.swept++
				if nearestFirst(tree, stats, visited) {
					c.nearest++
					if strings.HasSuffix(name, "-marked") {
						c.nearestMarked++
					}
				}
				if stats.LeavesVisited != stats.LeavesTotal || stats.PruneRatio() != 0 {
					t.Fatalf("%s: swept search reports %d of %d leaves", label, stats.LeavesVisited, stats.LeavesTotal)
				}
				// A row the sweep skips, ends on or leaves off its order is
				// not evaluated, but it is reached: the sweep reaches all n,
				// the probe its leaves' rows.
				probe := 0
				for _, leaf := range visited {
					probe += len(leaf.items)
				}
				if got := stats.DistanceEvals + stats.SkippedEvals; got != n+probe || probe > probeEvals(tree) {
					t.Fatalf("%s: swept search reports %d evals and %d skipped, want n=%d plus a probe of %d, at most %d",
						label, stats.DistanceEvals, stats.SkippedEvals, n, probe, probeEvals(tree))
				}
			} else {
				c.stayed++
				if stats.DistanceEvals > n || stats.SkippedEvals != 0 {
					t.Fatalf("%s: tree search evaluated %d of %d vectors, skipped %d", label, stats.DistanceEvals, n, stats.SkippedEvals)
				}
			}

			// Seeded: the second search starts from the first's leaves.
			ref := NewRefinementSearcher(view)
			ref.KNN(m, k)
			got, _ = ref.KNN(m, k)
			assertSameKNN(t, label+" seeded", want, got)

			// Two trees searched at once under one bound, merged by
			// (Dist, global id).
			sb := NewSharedBound()
			var legs [2][]Result
			var legNearest [2]bool
			var wg sync.WaitGroup
			for i, half := range halves {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var stats SearchStats
					var visited []*treeNode
					legs[i], stats, visited, _ = forceParallel(half, workers).knnSeeded(context.Background(), m, k, nil, sb)
					legNearest[i] = nearestFirst(half, stats, visited)
				}()
			}
			wg.Wait()
			for _, near := range legNearest {
				if near {
					c.nearestLegs++
				}
			}
			var merged []Result
			for i, leg := range legs {
				for _, r := range leg {
					merged = append(merged, Result{ID: globals[i][r.ID], Dist: r.Dist})
				}
			}
			sortResults(merged)
			assertSameKNN(t, label+" shared", want, merged[:min(k, len(merged))])
		}
	}
	return skipped
}

// appendRow appends a vector near v to the tree's store and to the half
// store its block is dealt to, and inserts it into both trees.
func appendRow(t *testing.T, rng *rand.Rand, tree *HybridTree, halves [2]*HybridTree, globals *[2][]int, v linalg.Vector) {
	t.Helper()
	w := v.Clone()
	w[rng.Intn(len(w))] += rng.NormFloat64()
	id, err := tree.store.Append(w)
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(id)
	leg := id / BlockRows % 2
	half := halves[leg]
	local, err := half.store.Append(w)
	if err != nil {
		t.Fatal(err)
	}
	half.Insert(local)
	globals[leg] = append(globals[leg], id)
}

// checkBlockBoxes fails unless every block box of s is exactly the
// bounding box of the block's rows, and every block radius is what
// measuring the whole block afresh gives (an Append that left the box
// alone folds in only its row) and holds each row.
func checkBlockBoxes(t *testing.T, label string, s *Store) {
	t.Helper()
	blocks := (s.Len() + BlockRows - 1) / BlockRows
	if len(s.boxes) != 2*blocks*s.Dim() || len(s.radii) != blocks {
		t.Fatalf("%s: %d box components and %d radii for %d blocks of dim %d", label, len(s.boxes), len(s.radii), blocks, s.Dim())
	}
	mid := make(linalg.Vector, s.Dim())
	for b := 0; b < blocks; b++ {
		r := s.blockBall(b, mid)
		if fresh := s.measure(b, b*BlockRows); r != fresh {
			t.Fatalf("%s: block %d radius %v, measured afresh %v", label, b, r, fresh)
		}
		for id := b * BlockRows; id < min((b+1)*BlockRows, s.Len()); id++ {
			if d := s.Vector(id).Sub(mid).Norm(); d > r {
				t.Fatalf("%s: row %d is %v from block %d's midpoint, radius %v", label, id, d, b, r)
			}
		}
	}
	for b := 0; b < blocks; b++ {
		lo, hi := s.blockBox(b)
		for d := 0; d < s.Dim(); d++ {
			wlo, whi := math.Inf(1), math.Inf(-1)
			for id := b * BlockRows; id < min((b+1)*BlockRows, s.Len()); id++ {
				wlo, whi = min(wlo, s.Vector(id)[d]), max(whi, s.Vector(id)[d])
			}
			if lo[d] != wlo || hi[d] != whi {
				t.Fatalf("%s: block %d axis %d box [%v, %v], rows span [%v, %v]", label, b, d, lo[d], hi[d], wlo, whi)
			}
		}
	}
}

// allBlocks is the plan of a nearest-first sweep over every block of
// tree's store: nothing is left off, since no block's bound exceeds +Inf
// and n rows are fewer than n+1.
func allBlocks(tree *HybridTree, m distance.Metric) *blockPlan {
	return tree.planBlocks(m, math.Inf(1), tree.store.Len()+1)
}

// A store whose distances overflow to +Inf: every searcher, the sweep in
// either order included, returns the page the search gave before storage
// blocks had boxes and radii, and a sweep whose k-th best is +Inf (an
// unarmed bound) skips nothing, and a search whose heap is still filling
// at leaf 8 never sweeps nearest first, which would leave off the blocks
// whose bound is +Inf. The block of [[1e200,0],[0,0],[1,1]] has
// a radius that overflows to +Inf, over which the ball bound is 0, not
// NaN. The padded store puts 64-row blocks of overflowing rows among
// finite ones, so a sweep meets them with its heap filling and full.
func TestSweepOverflowStore(t *testing.T) {
	s, err := NewStore([]linalg.Vector{{1e200, 0}, {0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := euclid(linalg.Vector{0, 0})
	mid := make(linalg.Vector, 2)
	r := s.blockBall(0, mid)
	if !math.IsInf(r, 1) {
		t.Fatalf("block radius %v, want +Inf", r)
	}
	if lb := m.(distance.BallMetric).BallLowerBound(mid, r); lb != 0 {
		t.Fatalf("ball bound over an overflowing radius = %v, want 0", lb)
	}
	page := []Result{{ID: 1, Dist: 0}, {ID: 2, Dist: 2}, {ID: 0, Dist: math.Inf(1)}}
	for k := 1; k <= 4; k++ {
		want := page[:min(k, len(page))]
		got, _ := tree.KNN(m, k)
		assertSameKNN(t, fmt.Sprintf("tree k=%d", k), want, got)
		got, _ = NewLinearScan(s).KNN(m, k)
		assertSameKNN(t, fmt.Sprintf("scan k=%d", k), want, got)
		for _, plan := range []*blockPlan{nil, allBlocks(tree, m)} {
			label := fmt.Sprintf("sweep k=%d nearest first %t", k, plan != nil)
			var stats SearchStats
			got, err := tree.sweep(context.Background(), m, newResultHeap(k), nil, plan, &stats)
			if err != nil {
				t.Fatal(err)
			}
			assertSameKNN(t, label, want, got)
			if stats.SkippedEvals != 0 {
				t.Fatalf("%s skipped %d rows", label, stats.SkippedEvals)
			}
		}
	}

	rng := rand.New(rand.NewSource(97))
	var vecs []linalg.Vector
	finite := 0
	for b := 0; b < 40; b++ {
		for range BlockRows {
			if b%3 == 1 {
				vecs = append(vecs, linalg.Vector{1e200 * (1 + rng.Float64()), rng.NormFloat64()})
			} else {
				vecs = append(vecs, linalg.Vector{rng.NormFloat64(), rng.NormFloat64()})
				finite++
			}
		}
	}
	padded := newStore(vecs)
	ptree := NewHybridTree(padded, TreeOptions{Parallelism: 1, NodeSizeBytes: 256})
	// 4-row leaves: 1 024 of them, so the leaf-8 check runs, with a heap
	// still filling for every k past 32.
	small := NewHybridTree(padded, TreeOptions{Parallelism: 1, NodeSizeBytes: 64})
	for _, k := range []int{1, 50, finite, finite + 10, len(vecs)} {
		want, _ := NewLinearScan(padded).KNN(m, k)
		got, _ := small.KNN(m, k)
		assertSameKNN(t, fmt.Sprintf("padded k=%d, 4-row leaves", k), want, got)
		for _, workers := range []int{1, 4} {
			for _, plan := range []*blockPlan{nil, allBlocks(ptree, m)} {
				label := fmt.Sprintf("padded k=%d workers=%d nearest first %t", k, workers, plan != nil)
				var stats SearchStats
				got, err := forceParallel(ptree, workers).sweep(context.Background(), m, newResultHeap(k), nil, plan, &stats)
				if err != nil {
					t.Fatal(err)
				}
				assertSameKNN(t, label, want, got)
				if k > finite && stats.SkippedEvals != 0 {
					t.Fatalf("%s: skipped %d rows under a +Inf k-th best", label, stats.SkippedEvals)
				}
				if stats.DistanceEvals+stats.SkippedEvals != len(vecs) {
					t.Fatalf("%s: %d evaluated and %d skipped of %d rows", label, stats.DistanceEvals, stats.SkippedEvals, len(vecs))
				}
			}
			if got, _ := forceParallel(ptree, workers).KNN(m, k); len(got) != len(want) {
				t.Fatalf("padded k=%d workers=%d: tree search returned %d results", k, workers, len(got))
			}
		}
	}
}

// sortResults orders a merged page the way every searcher does: by
// (Dist, ID).
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
}

// splitStore deals s's storage blocks alternately into two stores, as
// internal/shard places a 2-shard set, each under its own tree of the
// given node size, and returns the local-to-global id maps.
func splitStore(t *testing.T, s *Store, nodeSize int) ([2]*HybridTree, [2][]int) {
	t.Helper()
	var vecs [2][]linalg.Vector
	var globals [2][]int
	for id := 0; id < s.Len(); id++ {
		leg := id / BlockRows % 2
		vecs[leg] = append(vecs[leg], s.Vector(id))
		globals[leg] = append(globals[leg], id)
	}
	var trees [2]*HybridTree
	for i := range trees {
		half, err := NewStore(vecs[i])
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = NewHybridTree(half, TreeOptions{Parallelism: 1, NodeSizeBytes: nodeSize})
	}
	return trees, globals
}

// A sweep meets the vector that set the probe's k-th best a second time,
// now against a bound that is its own distance, and must keep it. The
// metric is the one-part Eq. 5 aggregate a single-cluster session
// builds, whose reported distance can round an ulp under the part the
// kernel compares; small k makes the probe's page the final one. (The
// served benchmark lost one result in ≈8 000 pages to this before
// Disjunctive.EvalBatch loosened its part bound.)
func TestSweepKeepsTheVectorThatSetItsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	const n, dim = 2000, 16
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: 1024})
	scan := NewLinearScan(s)
	for trial := 0; trial < 300; trial++ {
		part := testMetrics(rng, dim)["quad-full"].(*distance.Quadratic)
		m := distance.NewDisjunctive([]*distance.Quadratic{part}, []float64{0.5 + 4*rng.Float64()})
		k := 1 + rng.Intn(3)
		want, _ := scan.KNN(m, k)
		got, stats := tree.KNN(m, k)
		if stats.Swept != 1 {
			t.Fatalf("trial %d: search did not sweep: %+v", trial, stats)
		}
		assertSameKNN(t, fmt.Sprintf("trial %d k=%d", trial, k), want, got)
	}
}

// A sweep shared out over workers must return bit-identical results to
// the one-worker search — same IDs, same distances, same order — across
// many random queries, metrics and k values, and never evaluate a vector
// twice beyond the probe phase.
func TestSweepKNNMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	const n, dim = 3000, 8
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	seq := NewHybridTree(s, TreeOptions{Parallelism: 1})
	par := forceParallel(seq, 4)

	queries := 1000
	if testing.Short() {
		queries = 100
	}
	for qi := 0; qi < queries; qi++ {
		center := make(linalg.Vector, dim)
		for d := range center {
			center[d] = rng.NormFloat64() * 3
		}
		var m distance.Metric
		if qi%3 == 0 {
			m = distance.NewQuadraticDiag(center, onesInv(rng, dim))
		} else {
			m = &distance.Euclidean{Center: center}
		}
		k := 1 + rng.Intn(50)
		want, _ := seq.KNN(m, k)
		got, stats := par.KNN(m, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: parallel returned %d results, sequential %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: parallel %+v != sequential %+v", qi, i, got[i], want[i])
			}
		}
		if limit := s.Len() + stats.Swept*probeEvals(seq); stats.DistanceEvals > limit {
			t.Fatalf("query %d: %d distance evals exceed store size plus probe phase %d (a vector was evaluated twice)",
				qi, stats.DistanceEvals, limit)
		}
	}
}

// A swept search under a shared full-scheme quadratic metric — the exact
// workload that used to race on the metric's scratch buffer; run with
// -race in CI.
func TestSweepSharedFullSchemeMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n, dim = 4000, 6
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	par := forceParallel(NewHybridTree(s, TreeOptions{}), 8)

	center := make(linalg.Vector, dim)
	inv := linalg.Identity(dim)
	m := distance.NewQuadraticFull(center, inv)
	want, _ := NewLinearScan(s).KNN(m, 400)
	got, stats := par.KNN(m, 400)
	if stats.Swept != 1 || stats.Workers != 8 {
		t.Fatalf("search did not sweep on 8 workers: %+v", stats)
	}
	assertSameKNN(t, "8 workers", want, got)
}

// Cancelling mid-sweep must join the workers and return the best found
// so far — the probe phase's page at least — sorted, plus the context
// error.
func TestSweepCancelMidSweep(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(92))
	const n, k = 9000, 10
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, 12, 3))
	for _, workers := range []int{1, 4} {
		par := forceParallel(NewHybridTree(s, TreeOptions{NodeSizeBytes: 1024}), workers)
		ctx, cancel := context.WithCancel(context.Background())
		var chunks atomic.Int32
		faultinject.Set(faultinject.KNNSweepChunk, func() {
			if chunks.Add(1) == 5 {
				cancel()
			}
		})
		res, stats, err := par.KNNSharedContext(ctx, euclid(s.Vector(0)), k, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if stats.Swept != 1 || stats.DistanceEvals >= n {
			t.Fatalf("workers=%d: want an interrupted sweep, got %+v", workers, stats)
		}
		if len(res) != k {
			t.Fatalf("workers=%d: %d partial results, want the probe phase's %d", workers, len(res), k)
		}
		seen := map[int]bool{}
		for i, r := range res {
			if i > 0 && resultLess(r, res[i-1]) {
				t.Fatalf("workers=%d: partial results not ascending", workers)
			}
			if seen[r.ID] {
				t.Fatalf("workers=%d: id %d returned twice", workers, r.ID)
			}
			seen[r.ID] = true
		}
	}
}

// A nearest-first sweep over every block, started from an empty heap,
// must return the linear scan's page whatever the metric, k and worker
// count, on stores whose categories are tight and far apart: there a
// block's box and ball bounds sit within a few percent of its rows'
// distances, so ending the sweep or skipping a block a hair early loses
// a row of the page. The queries between two categories' rows have
// pages that span both blocks.
func TestNearestFirstSweepEndsAndSkipsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	for trial := 0; trial < 3; trial++ {
		dim := 2 + rng.Intn(19)
		cats := 20 + rng.Intn(40)
		vecs, _ := synth.Mixture[linalg.Vector](rng, cats, BlockRows, dim, 40)
		s := newStore(vecs)
		tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
		ms := sweepMetrics(rng, dim)
		ms["euclidean-at-row"] = euclid(s.Vector(rng.Intn(s.Len())).Clone())
		for i := range 4 {
			a, b := rng.Intn(cats), rng.Intn(cats-1)
			if b >= a {
				b++
			}
			u, v := s.Vector(a*BlockRows+rng.Intn(BlockRows)), s.Vector(b*BlockRows+rng.Intn(BlockRows))
			c := u.Add(v).Scale(0.5)
			ms[fmt.Sprintf("euclidean-between-%d", i)] = euclid(c)
			ms[fmt.Sprintf("quad-diag-between-%d", i)] = distance.NewQuadraticDiag(c, onesInv(rng, dim))
		}
		scan := NewLinearScan(s)
		skipped := 0
		for name, m := range ms {
			plan := allBlocks(tree, m)
			for _, k := range []int{1, 10, BlockRows, BlockRows + 1, 100 + rng.Intn(100)} {
				want, _ := scan.KNN(m, k)
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("trial %d dim %d %s k=%d workers=%d", trial, dim, name, k, workers)
					var stats SearchStats
					got, err := forceParallel(tree, workers).sweep(context.Background(), m, newResultHeap(k), nil, plan, &stats)
					if err != nil {
						t.Fatal(err)
					}
					assertSameKNN(t, label, want, got)
					if stats.DistanceEvals+stats.SkippedEvals != s.Len() {
						t.Fatalf("%s: %d evaluated and %d skipped of %d rows", label, stats.DistanceEvals, stats.SkippedEvals, s.Len())
					}
					skipped += stats.SkippedEvals
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("trial %d: no block was skipped or ended on", trial)
		}
	}
}

// Cancelling a nearest-first sweep mid-way must join the workers and
// return the probe's page merged with what the sweep reached — sorted,
// each id once, every distance the metric's — plus the context error,
// and report fewer rows reached than an uninterrupted sweep.
func TestSweepCancelNearestFirst(t *testing.T) {
	defer faultinject.Reset()
	ordered, _, euclids, _ := mix16World()
	s := newStore(ordered)
	const k = 100
	for _, workers := range []int{1, 4} {
		tree := forceParallel(NewHybridTree(s, TreeOptions{}), workers)
		m := euclids[0]
		_, full, visited, _ := tree.knnSeeded(context.Background(), m, k, nil, nil)
		if !nearestFirst(tree, full, visited) {
			t.Fatalf("precondition: the search did not sweep nearest first: %+v", full)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var chunks atomic.Int32
		faultinject.Set(faultinject.KNNSweepChunk, func() {
			if chunks.Add(1) == 3 {
				cancel()
			}
		})
		res, stats, visited, err := tree.knnSeeded(ctx, m, k, nil, nil)
		faultinject.Reset()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if !nearestFirst(tree, stats, visited) || stats.DistanceEvals+stats.SkippedEvals >= full.DistanceEvals+full.SkippedEvals {
			t.Fatalf("workers=%d: want an interrupted nearest-first sweep, got %+v after %+v", workers, stats, full)
		}
		if len(res) != k {
			t.Fatalf("workers=%d: %d partial results, want the probe phase's %d", workers, len(res), k)
		}
		seen := map[int]bool{}
		for i, r := range res {
			if i > 0 && resultLess(r, res[i-1]) {
				t.Fatalf("workers=%d: partial results not ascending", workers)
			}
			if seen[r.ID] || r.Dist != m.Eval(s.Vector(r.ID)) {
				t.Fatalf("workers=%d: result %+v repeated or not the metric's distance", workers, r)
			}
			seen[r.ID] = true
		}
	}
}

// A swept search must see exactly the tree's vectors: Store.Append
// without Insert is legal at this API, and a search over such a store
// stays in the tree however little the tree prunes.
func TestSweepSkippedWhenStoreAheadOfTree(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 2000, 8, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: 512})
	m := euclid(s.Vector(3))
	const k = 1500 // the heap is still filling at the check: nothing is pruned
	want, stats := tree.KNN(m, k)
	if stats.Swept != 1 {
		t.Fatalf("precondition: search did not sweep: %+v", stats)
	}

	id, err := s.Append(s.Vector(3).Clone()) // the query point itself, unindexed
	if err != nil {
		t.Fatal(err)
	}
	got, stats := tree.KNN(m, k)
	if stats.Swept != 0 {
		t.Fatalf("swept a store holding a vector the tree does not: %+v", stats)
	}
	assertSameKNN(t, "store ahead of tree", want, got)

	tree.Insert(id)
	got, stats = tree.KNN(m, k)
	if stats.Swept != 1 {
		t.Fatalf("search did not sweep once the tree caught up: %+v", stats)
	}
	want, _ = NewLinearScan(s).KNN(m, k)
	assertSameKNN(t, "after insert", want, got)
}

// NewStoreFlat wraps a contiguous block without copying and agrees with
// the vector-built store.
func TestNewStoreFlat(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6}
	s, err := NewStoreFlat(flat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if !s.Vector(2).Equal(linalg.Vector{5, 6}, 0) {
		t.Errorf("Vector(2) = %v", s.Vector(2))
	}
	if _, err := NewStoreFlat(nil, 3); err == nil {
		t.Error("empty block must error")
	}
	if _, err := NewStoreFlat([]float64{1, 2, 3}, 2); err == nil {
		t.Error("ragged block must error")
	}
	if _, err := NewStoreFlat([]float64{1, 2, 3}, 0); err == nil {
		t.Error("non-positive dim must error")
	}
}

// Appending through a Vector subslice must not clobber the neighboring
// vector: the store hands out capacity-capped subslices.
func TestStoreVectorAliasingSafe(t *testing.T) {
	s, err := NewStore([]linalg.Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	v := s.Vector(0)
	_ = append(v, 99) // must reallocate, not write into vector 1's slot
	if !s.Vector(1).Equal(linalg.Vector{3, 4}, 0) {
		t.Fatalf("append through a subslice corrupted vector 1: %v", s.Vector(1))
	}
}

// mix16World is the collection of the mix16 workloads — 1 000 categories
// of 64 16-d vectors, stored category by category — with its shuffled
// twin and the queries a session over it searches with: 16 first-page
// Euclidean queries at stored vectors, and 8 Eq. 5 metrics (full scheme,
// shrunk as a session shrinks it) over one category's 64 marks.
func mix16World() (ordered, shuffled []linalg.Vector, euclids, eq5s []distance.Metric) {
	const cats, perCat, dim = 1000, 64, 16
	rng := rand.New(rand.NewSource(16))
	ordered, _ = synth.Mixture[linalg.Vector](rng, cats, perCat, dim, 5)
	shuffled = make([]linalg.Vector, len(ordered))
	for i, p := range rng.Perm(len(ordered)) {
		shuffled[p] = ordered[i]
	}
	for range 16 {
		euclids = append(euclids, euclid(ordered[rng.Intn(len(ordered))]))
	}
	for range 8 {
		first := rng.Intn(cats) * perCat
		pts := make([]cluster.Point, perCat)
		for j := range pts {
			pts[j] = cluster.Point{ID: first + j, Vec: ordered[first+j], Score: 1}
		}
		m, _ := distance.FromClustersShrunkInfo([]*cluster.Cluster{cluster.FromPoints(pts)}, cluster.FullInverse, dim+1)
		eq5s = append(eq5s, m)
	}
	return ordered, shuffled, euclids, eq5s
}

// The work of a search over the mix16 collection is gated in exact
// evaluations, not wall clock, on one worker. Over the category-ordered
// store every query of both kinds sweeps nearest block first, and they
// average at most 5k (Euclidean) and 2k (Eq. 5) evaluations, where the
// storage-order sweep takes 7.8k and 46.8k on these queries and a
// nearest-first sweep without tangent planes 22.6k on the Eq. 5 ones
// (two of which its box-bound plan left to the storage-order sweep).
// Over the shuffled twin, whose blocks prune nothing, they take the
// storage-order sweep after the late check, with the evaluation counts
// that sweep has always had (pinned where Go does not fuse multiply-add,
// which can move the tree's bounds). Every page is the linear scan's,
// bit for bit.
func TestNearestFirstSweepWork(t *testing.T) {
	ordered, shuffled, euclids, eq5s := mix16World()
	const k = 100
	orderedTree := NewHybridTree(newStore(ordered), TreeOptions{Parallelism: 1})
	shuffledTree := NewHybridTree(newStore(shuffled), TreeOptions{Parallelism: 1})
	type tally struct{ evals, skipped, nearest int }
	run := func(tree *HybridTree, ms []distance.Metric) tally {
		scan := NewLinearScan(tree.store)
		var tl tally
		for i, m := range ms {
			got, stats, visited, err := tree.knnSeeded(context.Background(), m, k, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := scan.KNN(m, k)
			assertSameKNN(t, fmt.Sprintf("query %d", i), want, got)
			if stats.Swept != 1 {
				t.Fatalf("query %d did not sweep: %+v", i, stats)
			}
			tl.evals += stats.DistanceEvals
			tl.skipped += stats.SkippedEvals
			if nearestFirst(tree, stats, visited) {
				tl.nearest++
			}
		}
		return tl
	}
	for _, c := range []struct {
		name      string
		ms        []distance.Metric
		meanLimit int
		// shuffledEvals is the storage-order sweep's total over the
		// shuffled store.
		shuffledEvals int
	}{
		{"euclidean", euclids, 5000, 1056014},
		{"eq5", eq5s, 2000, 527997},
	} {
		got := run(orderedTree, c.ms)
		t.Logf("%s ordered: %d evaluations per search, %d skipped, %d of %d nearest first",
			c.name, got.evals/len(c.ms), got.skipped/len(c.ms), got.nearest, len(c.ms))
		if got.nearest != len(c.ms) || got.evals > c.meanLimit*len(c.ms) {
			t.Errorf("%s ordered: %d of %d searches nearest first, %d evaluations per search, want all and at most %d",
				c.name, got.nearest, len(c.ms), got.evals/len(c.ms), c.meanLimit)
		}
		twin := run(shuffledTree, c.ms)
		t.Logf("%s shuffled: %d evaluations in all, %d skipped, %d nearest first", c.name, twin.evals, twin.skipped, twin.nearest)
		if twin.nearest != 0 {
			t.Errorf("%s shuffled: %d searches swept nearest first, want the storage-order sweep", c.name, twin.nearest)
		}
		switch runtime.GOARCH {
		case "arm64", "loong64", "ppc64", "ppc64le", "riscv64", "s390x":
		default:
			if twin.evals != c.shuffledEvals || twin.skipped != 0 {
				t.Errorf("%s shuffled: %d evaluations and %d skipped, want the storage-order sweep's %d and 0",
					c.name, twin.evals, twin.skipped, c.shuffledEvals)
			}
		}
	}
}
