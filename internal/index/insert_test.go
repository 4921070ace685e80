package index

import (
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/linalg"
	"repro/internal/synth"
)

func TestStoreAppend(t *testing.T) {
	s, _ := NewStore([]linalg.Vector{{1, 2}})
	id, err := s.Append(linalg.Vector{3, 4})
	if err != nil || id != 1 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	if s.Len() != 2 || !s.Vector(1).Equal(linalg.Vector{3, 4}, 0) {
		t.Error("append did not extend the store")
	}
	if _, err := s.Append(linalg.Vector{1}); err == nil {
		t.Error("dim mismatch must error")
	}
}

func TestHybridTreeInsertStaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 500, 3, 3))
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 512})

	// Insert 500 more vectors one at a time.
	for i := 0; i < 500; i++ {
		v := linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		id, err := s.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		tree.Insert(id)
	}

	// The tree must now agree with a linear scan over the grown store.
	scan := NewLinearScan(s)
	for trial := 0; trial < 5; trial++ {
		center := linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		m := &distance.Euclidean{Center: center}
		want, _ := scan.KNN(m, 20)
		got, _ := tree.KNN(m, 20)
		if !sameResults(got, want) {
			t.Fatalf("trial %d: kNN mismatch after inserts", trial)
		}
	}
}

func TestHybridTreeInsertSplitsLeaves(t *testing.T) {
	// Start from a tiny store (single leaf), insert enough points to
	// force splits, and check the height grows.
	s, _ := NewStore([]linalg.Vector{{0, 0}})
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 256}) // capacity 16
	if tree.Height() != 1 {
		t.Fatalf("initial height = %d", tree.Height())
	}
	rng := rand.New(rand.NewSource(301))
	for i := 0; i < 200; i++ {
		id, _ := s.Append(linalg.Vector{rng.NormFloat64(), rng.NormFloat64()})
		tree.Insert(id)
	}
	if tree.Height() < 3 {
		t.Errorf("height = %d after 200 inserts into capacity-16 leaves", tree.Height())
	}
	// Everything still findable.
	res, _ := tree.KNN(&distance.Euclidean{Center: linalg.Vector{0, 0}}, 201)
	if len(res) != 201 {
		t.Errorf("found %d of 201 items", len(res))
	}
}

func TestHybridTreeInsertPanicsOutOfRange(t *testing.T) {
	s, _ := NewStore([]linalg.Vector{{0, 0}})
	tree := NewHybridTree(s, TreeOptions{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tree.Insert(5)
}

// One batch that overflows many leaves must rebuild every one of them
// before it returns: afterwards no leaf is over capacity, the leaf count
// is the tree's, and the tree still answers exactly.
func TestInsertBatchResplitsEveryOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 512, 2, 3))
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 256})
	if tree.LeafCapacity() != 16 {
		t.Fatalf("LeafCapacity = %d, want 16", tree.LeafCapacity())
	}
	ids := make([]int, 0, 512)
	for range 512 {
		id, err := s.Append(linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st := tree.InsertBatch(ids)
	if st.Resplits == 0 || st.ResplitTime <= 0 {
		t.Fatalf("512 inserts into capacity-16 leaves did no timed re-split work: %+v", st)
	}

	var leaves, items int
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if !n.isLeaf() {
			walk(n.left)
			walk(n.right)
			return
		}
		leaves++
		items += len(n.items)
		if len(n.items) > tree.LeafCapacity() {
			t.Errorf("leaf holds %d items after the batch, capacity %d", len(n.items), tree.LeafCapacity())
		}
	}
	walk(tree.root)
	if leaves != tree.numLeaves || items != s.Len() || tree.root.count != s.Len() {
		t.Fatalf("tree has %d leaves holding %d items (root count %d); numLeaves = %d, store %d",
			leaves, items, tree.root.count, tree.numLeaves, s.Len())
	}

	scan := NewLinearScan(s)
	for trial := range 5 {
		m := &distance.Euclidean{Center: linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3}}
		for _, k := range []int{1, 25, 300} {
			want, _ := scan.KNN(m, k)
			got, _ := tree.KNN(m, k)
			if !sameResults(got, want) {
				t.Fatalf("trial %d k=%d: kNN mismatch after the batch", trial, k)
			}
		}
	}
}
