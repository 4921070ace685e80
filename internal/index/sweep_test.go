package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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
// whether the search ends in the tree or as a sweep, and whether the
// sweep skips storage blocks or not — every page must be the linear
// scan's, bit for bit. The cases are generated: n, dim, leaf size and the
// queries are drawn per trial, 1 or 4 workers per case, and k spans 1, a
// page, an unfilled heap at the frontier check, k = n and k > n. Each
// trial lays its vectors out three ways: Gaussian noise, a synth.Mixture
// stored category by category (whose blocks a sweep skips) and the same
// mixture shuffled (whose blocks it cannot). Between two rounds of
// searches 1–70 vectors are appended, into a partial tail block, to the
// store and to the two half stores searched under one shared bound.
func TestSweepMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(240))
	trials := 4
	if testing.Short() {
		trials = 1
	}
	var c sweepCounts
	skippedBy := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		dim := 2 + rng.Intn(23)
		perCat := 16 + rng.Intn(80)
		mixture, _ := synth.Mixture[linalg.Vector](rng, 150/perCat+rng.Intn(1350/perCat), perCat, dim, 5)
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
		nodeSize := 256 << rng.Intn(5)
		for _, layout := range layouts {
			s := newStore(layout.vecs)
			tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: nodeSize})
			// The same collection as two trees under one shared bound: even
			// ids in one store, odd in the other.
			halves, globals := splitStore(t, s)
			ms := sweepMetrics(rng, dim)
			ms["euclidean-at-row"] = euclid(s.Vector(rng.Intn(n)).Clone())
			for round := 0; round < 2; round++ {
				label := fmt.Sprintf("trial %d %s n=%d dim=%d round %d", trial, layout.name, s.Len(), dim, round)
				skipped := checkSweepPages(t, rng, label, tree, halves, globals, ms, &c)
				skippedBy[layout.name] += skipped
				for range 1 + rng.Intn(70) {
					appendRow(t, rng, tree, halves, &globals, s.Vector(rng.Intn(s.Len())))
				}
				checkBlockBoxes(t, label, s)
			}
		}
	}
	t.Logf("%d searches swept, %d stayed in the tree; rows skipped by layout: %v", c.swept, c.stayed, skippedBy)
	if c.swept == 0 || c.stayed == 0 {
		t.Fatalf("generator covered one regime only: %d swept, %d stayed in the tree", c.swept, c.stayed)
	}
	if skippedBy["mixture"] == 0 {
		t.Fatal("no sweep over a category-ordered store skipped a block")
	}
}

type sweepCounts struct{ swept, stayed int }

// checkSweepPages runs every metric of ms at five k against the tree —
// unseeded, seeded from its own leaves, and as two half trees under one
// shared bound — and fails unless each page is the linear scan's. It
// returns the rows the unseeded searches skipped.
func checkSweepPages(t *testing.T, rng *rand.Rand, label string, tree *HybridTree, halves [2]*HybridTree, globals [2][]int, ms map[string]distance.Metric, c *sweepCounts) (skipped int) {
	t.Helper()
	n := tree.store.Len()
	scan := NewLinearScan(tree.store)
	for name, m := range ms {
		for _, k := range []int{1, 1 + rng.Intn(100), n / 2, n, n + 7} {
			want, _ := scan.KNN(m, k)
			workers := 1 + 3*rng.Intn(2)
			label := fmt.Sprintf("%s %s k=%d workers=%d", label, name, k, workers)
			view := forceParallel(tree, workers)

			got, stats := view.KNN(m, k)
			assertSameKNN(t, label, want, got)
			skipped += stats.SkippedEvals
			if stats.Swept == 1 {
				c.swept++
				if stats.LeavesVisited != stats.LeavesTotal || stats.PruneRatio() != 0 {
					t.Fatalf("%s: swept search reports %d of %d leaves", label, stats.LeavesVisited, stats.LeavesTotal)
				}
				// A row the sweep skips is not evaluated, but it is reached.
				if probe := stats.DistanceEvals + stats.SkippedEvals - n; probe <= 0 || probe > probeEvals(tree) {
					t.Fatalf("%s: swept search reports %d evals and %d skipped, want n=%d plus a probe of at most %d",
						label, stats.DistanceEvals, stats.SkippedEvals, n, probeEvals(tree))
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
			var wg sync.WaitGroup
			for i, half := range halves {
				wg.Add(1)
				go func() {
					defer wg.Done()
					legs[i], _, _ = forceParallel(half, workers).KNNSharedContext(context.Background(), m, k, sb)
				}()
			}
			wg.Wait()
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
// store of its parity, and inserts it into both trees.
func appendRow(t *testing.T, rng *rand.Rand, tree *HybridTree, halves [2]*HybridTree, globals *[2][]int, v linalg.Vector) {
	t.Helper()
	w := v.Clone()
	w[rng.Intn(len(w))] += rng.NormFloat64()
	id, err := tree.store.Append(w)
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(id)
	half := halves[id%2]
	local, err := half.store.Append(w)
	if err != nil {
		t.Fatal(err)
	}
	half.Insert(local)
	globals[id%2] = append(globals[id%2], id)
}

// checkBlockBoxes fails unless every block box of s is exactly the
// bounding box of the block's rows.
func checkBlockBoxes(t *testing.T, label string, s *Store) {
	t.Helper()
	blocks := (s.Len() + BlockRows - 1) / BlockRows
	if len(s.boxes) != 2*blocks*s.Dim() {
		t.Fatalf("%s: %d box components for %d blocks of dim %d", label, len(s.boxes), blocks, s.Dim())
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

// A store whose distances overflow to +Inf: every searcher, the sweep
// included, returns the page the search gave before storage blocks had
// boxes, and a sweep whose k-th best is +Inf (an unarmed bound) skips
// nothing. The padded store puts 64-row blocks of overflowing rows among
// finite ones, so a sweep meets them with its heap filling and full.
func TestSweepOverflowStore(t *testing.T) {
	s, err := NewStore([]linalg.Vector{{1e200, 0}, {0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := euclid(linalg.Vector{0, 0})
	page := []Result{{ID: 1, Dist: 0}, {ID: 2, Dist: 2}, {ID: 0, Dist: math.Inf(1)}}
	for k := 1; k <= 4; k++ {
		want := page[:min(k, len(page))]
		got, _ := tree.KNN(m, k)
		assertSameKNN(t, fmt.Sprintf("tree k=%d", k), want, got)
		got, _ = NewLinearScan(s).KNN(m, k)
		assertSameKNN(t, fmt.Sprintf("scan k=%d", k), want, got)
		var stats SearchStats
		got, err := tree.sweep(context.Background(), m, newResultHeap(k), nil, &stats)
		if err != nil {
			t.Fatal(err)
		}
		assertSameKNN(t, fmt.Sprintf("sweep k=%d", k), want, got)
		if stats.SkippedEvals != 0 {
			t.Fatalf("sweep k=%d skipped %d rows", k, stats.SkippedEvals)
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
	for _, k := range []int{1, 50, finite, finite + 10, len(vecs)} {
		want, _ := NewLinearScan(padded).KNN(m, k)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("padded k=%d workers=%d", k, workers)
			var stats SearchStats
			got, err := forceParallel(ptree, workers).sweep(context.Background(), m, newResultHeap(k), nil, &stats)
			if err != nil {
				t.Fatal(err)
			}
			assertSameKNN(t, label, want, got)
			if k > finite && stats.SkippedEvals != 0 {
				t.Fatalf("%s: skipped %d rows under a +Inf k-th best", label, stats.SkippedEvals)
			}
			if got, _ := forceParallel(ptree, workers).KNN(m, k); len(got) != len(want) {
				t.Fatalf("%s: tree search returned %d results", label, len(got))
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

// splitStore deals s's vectors alternately into two stores, each under
// its own tree, and returns the local-to-global id maps.
func splitStore(t *testing.T, s *Store) ([2]*HybridTree, [2][]int) {
	t.Helper()
	var vecs [2][]linalg.Vector
	var globals [2][]int
	for id := 0; id < s.Len(); id++ {
		vecs[id%2] = append(vecs[id%2], s.Vector(id))
		globals[id%2] = append(globals[id%2], id)
	}
	var trees [2]*HybridTree
	for i := range trees {
		half, err := NewStore(vecs[i])
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = NewHybridTree(half, TreeOptions{Parallelism: 1, NodeSizeBytes: 512})
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
		res, stats, err := par.KNNContext(ctx, euclid(s.Vector(0)), k)
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

// An interrupted refinement search must not shrink the same-epoch leaf
// cache: the leaves it failed to reach remain valid seeds and are
// unioned with the ones it visited, so the retry starts at least as
// warm as the previous completed search.
func TestRefinementCacheRetainedAcrossInterrupt(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(93))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 2000, 4, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: 256})
	ref := NewRefinementSearcher(tree)

	m1 := euclid(s.Vector(11))
	ref.KNN(m1, 60) // completed search warms the cache
	warm := len(ref.cached)
	if warm == 0 {
		t.Fatal("cache not warmed")
	}

	// Interrupt the next (slightly moved) search almost immediately, so
	// it visits fewer leaves than are cached.
	ctx, cancel := context.WithCancel(context.Background())
	pops := 0
	faultinject.Set(faultinject.KNNPop, func() {
		pops++
		if pops == 1 {
			cancel()
		}
	})
	m2 := euclid(s.Vector(12))
	_, _, err := ref.KNNContext(ctx, m2, 60)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	faultinject.Reset()

	if got := len(ref.cached); got < warm {
		t.Fatalf("interrupted search shrank the cache: %d leaves, had %d", got, warm)
	}

	// The retry must still be exact.
	res, _, err := ref.KNNContext(context.Background(), m2, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewLinearScan(s).KNN(m2, 60)
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("retry result %d: %+v != %+v", i, res[i], want[i])
		}
	}
}

// A cache taken at an older epoch is still discarded on interrupt paths:
// the union applies only to same-epoch caches.
func TestRefinementCacheInterruptAfterInsertDiscards(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 1500, 3, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1, NodeSizeBytes: 256})
	ref := NewRefinementSearcher(tree)
	m := euclid(s.Vector(5))
	ref.KNN(m, 30)
	if len(ref.cached) == 0 {
		t.Fatal("cache not warmed")
	}
	id, err := s.Append(s.Vector(5).Clone())
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(id)
	// Pre-cancelled context: the search is interrupted before any work;
	// the stale cache must have been dropped, not unioned back in.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, cerr := ref.KNNContext(ctx, m, 30)
	if !errors.Is(cerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", cerr)
	}
	if got := len(ref.cached); got != 0 {
		t.Fatalf("stale cache survived an insert: %d leaves", got)
	}
	res, _ := ref.KNN(m, 30)
	want, _ := NewLinearScan(s).KNN(m, 30)
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("post-insert result %d: %+v != %+v", i, res[i], want[i])
		}
	}
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
