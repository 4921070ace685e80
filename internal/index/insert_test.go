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

func TestInsertResplitCapDefers(t *testing.T) {
	// A capacity-16 tree with a cap of one re-split per batch: a batch
	// that overflows several leaves must rebuild exactly one and leave
	// the rest queued — searches stay exact over the oversized leaves,
	// and later inserts drain the backlog.
	rng := rand.New(rand.NewSource(302))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 64, 2, 3))
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 256, MaxResplitsPerBatch: 1})

	ids := make([]int, 0, 256)
	for i := 0; i < 256; i++ {
		id, err := s.Append(linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st := tree.InsertBatch(ids)
	if st.Resplits != 1 {
		t.Fatalf("Resplits = %d, want exactly the cap (1)", st.Resplits)
	}
	if st.Deferred == 0 || len(tree.pending) != st.Deferred {
		t.Fatalf("Deferred = %d, pending = %d; want a matching non-zero backlog",
			st.Deferred, len(tree.pending))
	}

	// Deferred leaves are oversized, never wrong: the tree still agrees
	// with a linear scan.
	scan := NewLinearScan(s)
	m := &distance.Euclidean{Center: linalg.Vector{0, 0}}
	want, _ := scan.KNN(m, 25)
	got, _ := tree.KNN(m, 25)
	if !sameResults(got, want) {
		t.Fatal("kNN mismatch with deferred re-splits outstanding")
	}

	// Later inserts drain the backlog one re-split at a time.
	var total InsertStats
	for len(tree.pending) > 0 {
		id, err := s.Append(linalg.Vector{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		ist := tree.Insert(id)
		if ist.Resplits > 1 {
			t.Fatalf("single insert drained %d re-splits past the cap", ist.Resplits)
		}
		total.Add(ist)
	}
	if total.Resplits == 0 || total.ResplitTime <= 0 {
		t.Fatalf("drain did no timed re-split work: %+v", total)
	}
	want, _ = scan.KNN(m, 25)
	got, _ = tree.KNN(m, 25)
	if !sameResults(got, want) {
		t.Fatal("kNN mismatch after the backlog drained")
	}
}

func TestInsertUncappedResplits(t *testing.T) {
	// A negative cap removes the bound: no batch leaves a backlog.
	rng := rand.New(rand.NewSource(303))
	s := newStore(synth.Gaussian[linalg.Vector](rng, 16, 2, 3))
	tree := NewHybridTree(s, TreeOptions{NodeSizeBytes: 256, MaxResplitsPerBatch: -1})
	ids := make([]int, 0, 512)
	for i := 0; i < 512; i++ {
		id, err := s.Append(linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st := tree.InsertBatch(ids)
	if st.Deferred != 0 || len(tree.pending) != 0 {
		t.Fatalf("uncapped batch deferred %d re-splits", st.Deferred)
	}
	if st.Resplits == 0 {
		t.Fatal("512 inserts into capacity-16 leaves re-split nothing")
	}
}
