package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// newStore wraps vectors a test generated, which are always valid.
func newStore(vecs []linalg.Vector) *Store {
	s, err := NewStore(vecs)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil); err == nil {
		t.Error("empty store must error")
	}
	if _, err := NewStore([]linalg.Vector{{1, 2}, {1}}); err == nil {
		t.Error("ragged store must error")
	}
	s, err := NewStore([]linalg.Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Dim() != 2 {
		t.Errorf("Len=%d Dim=%d", s.Len(), s.Dim())
	}
	if !s.Vector(1).Equal(linalg.Vector{3, 4}, 0) {
		t.Error("Vector(1) mismatch")
	}
}

func TestLinearScanKNN(t *testing.T) {
	s, _ := NewStore([]linalg.Vector{{0, 0}, {1, 0}, {5, 5}, {0.5, 0}})
	res, stats := NewLinearScan(s).KNN(&distance.Euclidean{Center: linalg.Vector{0, 0}}, 2)
	if len(res) != 2 || res[0].ID != 0 || res[1].ID != 3 {
		t.Errorf("res = %v", res)
	}
	if stats.DistanceEvals != 4 {
		t.Errorf("evals = %d", stats.DistanceEvals)
	}
}

func TestResultHeapKeepsKSmallest(t *testing.T) {
	h := newResultHeap(3)
	for i, d := range []float64{9, 1, 8, 2, 7, 3} {
		h.offer(Result{ID: i, Dist: d})
	}
	out := h.sorted()
	if len(out) != 3 || out[0].Dist != 1 || out[1].Dist != 2 || out[2].Dist != 3 {
		t.Errorf("out = %v", out)
	}
}

func TestHybridTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		dim := 2 + rng.Intn(5)
		s := newStore(synth.Gaussian[linalg.Vector](rng, 500+rng.Intn(500), dim, 3))
		tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 512})
		scan := NewLinearScan(s)

		center := make(linalg.Vector, dim)
		for d := range center {
			center[d] = rng.NormFloat64() * 3
		}
		metrics := []distance.Metric{
			&distance.Euclidean{Center: center},
			distance.NewQuadraticDiag(center, onesInv(rng, dim)),
		}
		for mi, m := range metrics {
			want, _ := scan.KNN(m, 10)
			got, stats := tree.KNN(m, 10)
			if !sameResults(got, want) {
				t.Fatalf("trial %d metric %d: tree %v != scan %v", trial, mi, got, want)
			}
			if stats.DistanceEvals > s.Len() {
				t.Fatalf("tree evaluated more than the whole store")
			}
		}
	}
}

func onesInv(rng *rand.Rand, dim int) linalg.Vector {
	v := make(linalg.Vector, dim)
	for i := range v {
		v[i] = 0.2 + rng.Float64()
	}
	return v
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Allow ties to permute IDs but distances must agree.
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func TestHybridTreeDisjunctiveMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 2000, 3, 3))
	tree := NewHybridTree(s, TreeOptions{})
	scan := NewLinearScan(s)

	q1 := distance.NewQuadraticDiag(linalg.Vector{-3, -3, -3}, linalg.Vector{1, 1, 1})
	q2 := distance.NewQuadraticDiag(linalg.Vector{3, 3, 3}, linalg.Vector{1, 1, 1})
	m := distance.NewDisjunctive([]*distance.Quadratic{q1, q2}, []float64{1, 2})

	want, _ := scan.KNN(m, 25)
	got, stats := tree.KNN(m, 25)
	if !sameResults(got, want) {
		t.Fatalf("disjunctive kNN mismatch:\n tree %v\n scan %v", got[:5], want[:5])
	}
	if stats.DistanceEvals >= s.Len() {
		t.Errorf("no pruning achieved: %d evals of %d", stats.DistanceEvals, s.Len())
	}
}

func TestHybridTreePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 20000, 3, 3))
	// Parallelism 1: the eval-count assertion is about the sequential
	// traversal's pruning; the parallel path's counts are load-dependent.
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := &distance.Euclidean{Center: linalg.Vector{0, 0, 0}}
	_, stats := tree.KNN(m, 10)
	if stats.DistanceEvals > s.Len()/4 {
		t.Errorf("weak pruning: %d evals of %d", stats.DistanceEvals, s.Len())
	}
}

func TestHybridTreeDuplicateVectors(t *testing.T) {
	// All-identical vectors exercise the degenerate split path.
	vecs := make([]linalg.Vector, 100)
	for i := range vecs {
		vecs[i] = linalg.Vector{1, 1}
	}
	s, _ := NewStore(vecs)
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 128})
	res, _ := tree.KNN(&distance.Euclidean{Center: linalg.Vector{1, 1}}, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Dist != 0 {
			t.Errorf("dist = %v", r.Dist)
		}
	}
}

func TestHybridTreeKLargerThanStore(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 7, 2, 3))
	tree := NewHybridTree(s, TreeOptions{})
	res, _ := tree.KNN(&distance.Euclidean{Center: linalg.Vector{0, 0}}, 100)
	if len(res) != 7 {
		t.Errorf("got %d results, want all 7", len(res))
	}
}

func TestRefinementSearcherCorrectAndCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 30000, 3, 3))
	// Parallelism 1: the cached-vs-cold node-count comparison assumes the
	// deterministic sequential traversal.
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	ref := NewRefinementSearcher(tree)
	scan := NewLinearScan(s)

	// Iteration 1: fresh query.
	m1 := &distance.Euclidean{Center: linalg.Vector{1, 1, 1}}
	res1, stats1 := ref.KNN(m1, 100)
	want1, _ := scan.KNN(m1, 100)
	if !sameResults(res1, want1) {
		t.Fatal("iteration 1 results wrong")
	}
	if len(ref.cached) == 0 {
		t.Fatal("no leaves cached")
	}

	// Iteration 2: slightly moved query (as refinement produces).
	m2 := &distance.Euclidean{Center: linalg.Vector{1.05, 0.95, 1.02}}
	res2, stats2 := ref.KNN(m2, 100)
	want2, _ := scan.KNN(m2, 100)
	if !sameResults(res2, want2) {
		t.Fatal("iteration 2 results wrong")
	}
	// The cached bound must reduce node expansions vs a cold search.
	_, cold := tree.KNN(m2, 100)
	if stats2.NodesVisited > cold.NodesVisited {
		t.Errorf("cached search visited %d nodes, cold %d", stats2.NodesVisited, cold.NodesVisited)
	}
	_ = stats1
	ref.Reset()
	if len(ref.cached) != 0 {
		t.Error("Reset did not clear cache")
	}
}

func TestTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 1000, 4, 3))
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 4096})
	// 4096/(8*4) = 128 leaf capacity.
	if tree.LeafCapacity() != 128 {
		t.Errorf("LeafCapacity = %d", tree.LeafCapacity())
	}
	if h := tree.Height(); h < 2 || h > 12 {
		t.Errorf("Height = %d", h)
	}
}

func TestNewStoreRejectsNonFinite(t *testing.T) {
	if _, err := NewStore([]linalg.Vector{{1, math.NaN()}}); err == nil {
		t.Error("NaN component must be rejected")
	}
	if _, err := NewStore([]linalg.Vector{{1, math.Inf(1)}}); err == nil {
		t.Error("Inf component must be rejected")
	}
}
