package index

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/synth"
)

func euclid(center linalg.Vector) distance.Metric {
	return &distance.Euclidean{Center: center}
}

// k <= 0 must yield empty results from every searcher, not a panic.
func TestKNNNonPositiveK(t *testing.T) {
	s := newStore(synth.Gaussian[linalg.Vector](rand.New(rand.NewSource(1)), 50, 4, 1))
	tree := NewHybridTree(s, TreeOptions{})
	ref := NewRefinementSearcher(tree)
	scan := NewLinearScan(s)
	m := euclid(s.Vector(0))
	for _, k := range []int{0, -1, -100} {
		if res, _ := tree.KNN(m, k); len(res) != 0 {
			t.Errorf("tree.KNN(k=%d) = %d results, want 0", k, len(res))
		}
		if res, _ := ref.KNN(m, k); len(res) != 0 {
			t.Errorf("ref.KNN(k=%d) = %d results, want 0", k, len(res))
		}
		if res, _ := scan.KNN(m, k); len(res) != 0 {
			t.Errorf("scan.KNN(k=%d) = %d results, want 0", k, len(res))
		}
	}
}

// k larger than the collection must return every item, in ascending
// distance order, and agree with the linear scan.
func TestKNNKExceedsLen(t *testing.T) {
	s := newStore(synth.Gaussian[linalg.Vector](rand.New(rand.NewSource(2)), 37, 5, 1))
	tree := NewHybridTree(s, TreeOptions{})
	m := euclid(s.Vector(3))
	res, _ := tree.KNN(m, 1000)
	if len(res) != s.Len() {
		t.Fatalf("got %d results, want %d", len(res), s.Len())
	}
	want, _ := NewLinearScan(s).KNN(m, 1000)
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result %d: tree %+v != scan %+v", i, res[i], want[i])
		}
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

// A 1-item database must answer any k with its single item.
func TestKNNSingleItem(t *testing.T) {
	s, err := NewStore([]linalg.Vector{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewHybridTree(s, TreeOptions{})
	ref := NewRefinementSearcher(tree)
	for _, k := range []int{1, 2, 10} {
		res, _ := tree.KNN(euclid(linalg.Vector{0, 0, 0}), k)
		if len(res) != 1 || res[0].ID != 0 {
			t.Fatalf("k=%d: %+v", k, res)
		}
		res, _ = ref.KNN(euclid(linalg.Vector{9, 9, 9}), k)
		if len(res) != 1 || res[0].ID != 0 {
			t.Fatalf("refinement k=%d: %+v", k, res)
		}
	}
}

// An already-cancelled context stops the traversal before any node work.
func TestKNNContextPreCancelled(t *testing.T) {
	s := newStore(synth.Gaussian[linalg.Vector](rand.New(rand.NewSource(3)), 200, 4, 1))
	tree := NewHybridTree(s, TreeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats, err := tree.KNNSharedContext(ctx, euclid(s.Vector(0)), 10, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.NodesVisited != 0 {
		t.Errorf("visited %d nodes after pre-cancel", stats.NodesVisited)
	}
	if len(res) != 0 {
		t.Errorf("pre-cancelled search returned %d results", len(res))
	}
}

// Cancelling mid-traversal (via the KNNPop hook) returns the best-effort
// partial results found so far plus the context error.
func TestKNNContextMidTraversalCancel(t *testing.T) {
	defer faultinject.Reset()
	s := newStore(synth.Gaussian[linalg.Vector](rand.New(rand.NewSource(4)), 2000, 8, 1))
	tree := NewHybridTree(s, TreeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	pops := 0
	faultinject.Set(faultinject.KNNPop, func() {
		pops++
		if pops == 3 {
			cancel()
		}
	})
	res, _, err := tree.KNNSharedContext(ctx, euclid(s.Vector(0)), 10, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Partial results must still be sorted.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("partial results not ascending")
		}
	}
	// And the traversal must actually have stopped early.
	full, _ := tree.KNN(euclid(s.Vector(0)), 10)
	if len(res) > len(full) {
		t.Fatalf("partial %d > full %d", len(res), len(full))
	}
}

// Insert bumps the tree epoch and a stale refinement cache is dropped,
// not reused: searches after an insert still return exact answers.
func TestRefinementCacheEpochInvalidation(t *testing.T) {
	s := newStore(synth.Gaussian[linalg.Vector](rand.New(rand.NewSource(5)), 300, 3, 1))
	tree := NewHybridTree(s, TreeOptions{})
	ref := NewRefinementSearcher(tree)
	m := euclid(s.Vector(7))
	ref.KNN(m, 20) // warm the cache
	if len(ref.cached) == 0 {
		t.Fatal("cache not warmed")
	}
	e0 := tree.epoch
	// Insert a point that lands in the cached neighborhood.
	id, err := s.Append(s.Vector(7).Clone())
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(id)
	if tree.epoch == e0 {
		t.Fatal("Insert must bump the epoch")
	}
	res, _ := ref.KNN(m, 20)
	want, _ := NewLinearScan(s).KNN(m, 20)
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("post-insert result %d: %+v != %+v", i, res[i], want[i])
		}
	}
}
