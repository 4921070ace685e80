package qcluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/synth"
)

// buildDB constructs a database over vectors with the given backend (and
// for "ann" an efSearch covering the whole collection, so every search
// degenerates to an exhaustive exact sweep — the bit-identity regime).
func buildDB(t *testing.T, vectors [][]float64, opt IndexOptions) *Database {
	t.Helper()
	db, err := NewDatabaseWithOptions(vectors, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// identicalResults asserts bit-exact equality, distances included.
func identicalResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBackendUnknownRejected: a bad backend name fails every
// constructor before it does any work. The durable open is the one with
// something to lose — WAL replay truncates a torn tail on disk — so a
// refused open must leave the data directory byte-identical.
func TestBackendUnknownRejected(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(8)), 10, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAA, 0xBB, 0xCC}); err != nil { // torn tail
		t.Fatal(err)
	}
	f.Close()
	readDir := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(blob)
		}
		return files
	}
	before := readDir()

	for _, tc := range []struct{ backend, wantInErr string }{
		{"vafile", "tree is the exact backend"},
		{"nope", "unknown index backend"},
	} {
		opt := IndexOptions{Backend: IndexBackend(tc.backend)}
		if _, err := NewDatabaseWithOptions([][]float64{{1, 2}}, opt); err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("NewDatabaseWithOptions(%q): err = %v, want one containing %q", tc.backend, err, tc.wantInErr)
		}
		if _, err := OpenDatabase(dir, DurableOptions{Index: opt}); err == nil || !strings.Contains(err.Error(), tc.wantInErr) {
			t.Errorf("OpenDatabase(%q): err = %v, want one containing %q", tc.backend, err, tc.wantInErr)
		}
		if after := readDir(); !reflect.DeepEqual(after, before) {
			t.Errorf("OpenDatabase(%q) refused the backend after changing the data dir", tc.backend)
		}
	}
}

// TestANNBackendBitIdentityWithFeedback is the refinement bit-identity
// contract end to end: with efSearch covering the whole collection the
// ANN candidate set equals the collection, so exact refinement must make
// every search — and every feedback round driven by those results —
// bit-identical to the exact tree backend, adaptive metric included.
func TestANNBackendBitIdentityWithFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	tree := buildDB(t, vectors, IndexOptions{})
	annDB := buildDB(t, vectors, IndexOptions{
		Backend: BackendANN,
		ANN:     ANNOptions{EfSearch: len(vectors) + 1},
	})
	if got := annDB.IndexInfo(); got.Backend != "ann" || got.ANNEfSearch != len(vectors)+1 {
		t.Fatalf("IndexInfo = %+v", got)
	}

	st := tree.NewSession(tree.Vector(0), Options{})
	sa := annDB.NewSession(annDB.Vector(0), Options{})
	for round := 0; round < 4; round++ {
		rt := st.Results(40)
		ra := sa.Results(40)
		identicalResults(t, ra, rt, "feedback round")
		var marked []Point
		for _, r := range rt {
			if labels[r.ID] == 0 {
				marked = append(marked, Point{ID: r.ID, Vec: tree.Vector(r.ID), Score: 3})
			}
		}
		if err := st.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
		if err := sa.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
	}
	if st.Query().NumQueryPoints() != sa.Query().NumQueryPoints() {
		t.Fatalf("query points diverged: tree %d, ann %d",
			st.Query().NumQueryPoints(), sa.Query().NumQueryPoints())
	}

	// The stateless paths agree too.
	q := vectors[rng.Intn(len(vectors))]
	identicalResults(t, annDB.SearchByExample(q, 20), tree.SearchByExample(q, 20), "stateless search")
}

func TestANNBackendApproxRecall(t *testing.T) {
	// With a realistic (bounded) efSearch the ANN backend is genuinely
	// approximate; on easy clustered data its refined top-10 should still
	// almost always match the exact answer set.
	rng := rand.New(rand.NewSource(42))
	var vectors [][]float64
	for c := 0; c < 8; c++ {
		cx, cy, cz := rng.NormFloat64()*8, rng.NormFloat64()*8, rng.NormFloat64()*8
		for i := 0; i < 150; i++ {
			vectors = append(vectors, []float64{
				cx + 0.3*rng.NormFloat64(), cy + 0.3*rng.NormFloat64(), cz + 0.3*rng.NormFloat64(),
			})
		}
	}
	tree := buildDB(t, vectors, IndexOptions{})
	annDB := buildDB(t, vectors, IndexOptions{Backend: BackendANN, ANN: ANNOptions{EfSearch: 128}})

	hits, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := vectors[rng.Intn(len(vectors))]
		want := tree.SearchByExample(q, 10)
		got := annDB.SearchByExample(q, 10)
		exact := make(map[int]bool, len(want))
		for _, r := range want {
			exact[r.ID] = true
		}
		for _, r := range got {
			if exact[r.ID] {
				hits++
			}
		}
		total += len(want)
	}
	if recall := float64(hits) / float64(total); recall < 0.95 {
		t.Fatalf("recall@10 = %.3f, want >= 0.95", recall)
	}
	// The approximate path must report graph work in its metrics.
	snap := annDB.Metrics()
	if snap.Counters["index.graph_hops"] == 0 || snap.Counters["index.refine_evals"] == 0 {
		t.Fatalf("graph counters missing: hops=%d refine=%d",
			snap.Counters["index.graph_hops"], snap.Counters["index.refine_evals"])
	}
}

func TestANNBackendStatelessSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	annDB := buildDB(t, vectors, IndexOptions{Backend: BackendANN, ANN: ANNOptions{EfSearch: len(vectors) + 1}})

	res, err := annDB.SearchByExampleContext(context.Background(), annDB.Vector(3), 5)
	if err != nil || len(res) != 5 || res[0].ID != 3 || res[0].Dist != 0 {
		t.Fatalf("self-query results: %+v, err %v", res, err)
	}
	// A beam covering the collection degenerates to exact: compare with
	// the tree.
	tree := buildDB(t, vectors, IndexOptions{})
	identicalResults(t, res, tree.SearchByExample(tree.Vector(3), 5), "exhaustive EfSearch")

	// Dimension mismatch still checked.
	if _, err := annDB.SearchByExampleContext(context.Background(), []float64{1}, 5); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

func TestANNBackendRejectsUnquantizable(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	annDB := buildDB(t, vectors, IndexOptions{Backend: BackendANN})
	n := annDB.Len()
	// 1e39 overflows float32: the add must fail atomically — nothing
	// appended, graph and store still in lockstep, searches still fine.
	if _, err := annDB.Add([]float64{1, 2, 1e39}); err == nil {
		t.Fatal("float32-overflowing component must reject the Add on the ann backend")
	}
	if _, err := annDB.AddBatch([][]float64{{1, 2, 3}, {0, 0, math.MaxFloat64}}); err == nil {
		t.Fatal("unquantizable batch must be rejected atomically")
	}
	if annDB.Len() != n {
		t.Fatalf("failed adds changed Len: %d -> %d", n, annDB.Len())
	}
	if res := annDB.SearchByExample(annDB.Vector(0), 3); len(res) != 3 {
		t.Fatalf("search after rejected adds: %d results", len(res))
	}
	// The exact backends accept the same vector (no quantization there).
	tree := buildDB(t, vectors, IndexOptions{})
	if _, err := tree.Add([]float64{1, 2, 1e39}); err != nil {
		t.Fatalf("tree backend rejected a finite vector: %v", err)
	}

	// A durable ann collection refuses it before the WAL: the record
	// would not apply, and would not replay on the next boot either.
	dir, opt := t.TempDir(), DurableOptions{Index: IndexOptions{Backend: BackendANN}, Seed: vectors}
	d, err := OpenDatabase(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBatch([][]float64{{1e300, 0, 0}}); err == nil || errors.Is(err, ErrReadOnly) || d.Health().ReadOnly {
		t.Fatalf("unquantizable durable add: err %v, health %+v", err, d.Health())
	}
	if _, err := d.Add([]float64{1, 2, 3}); err != nil {
		t.Fatalf("valid add after the refusal: %v", err)
	}
	d.Close()
	if d, err = OpenDatabase(dir, opt); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer d.Close()
	if d.Len() != n+1 {
		t.Fatalf("reboot Len = %d, want %d", d.Len(), n+1)
	}
}

func TestResplitMetricsSurface(t *testing.T) {
	// Small leaves + a large batch ⇒ re-splits must show up in the
	// maintenance metrics ("index.resplits", "search.resplit_ns") and the
	// backlog gauge must drain to zero eventually.
	rng := rand.New(rand.NewSource(45))
	vectors := make([][]float64, 64)
	for i := range vectors {
		vectors[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	db := buildDB(t, vectors, IndexOptions{})
	db.tree = index.NewHybridTree(db.store, index.TreeOptions{NodeSizeBytes: 256, MaxResplitsPerBatch: 1})
	batch := make([][]float64, 256)
	for i := range batch {
		batch[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	if _, err := db.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	if snap.Counters["index.resplits"] == 0 || snap.Counters["search.resplit_ns"] == 0 {
		t.Fatalf("re-split metrics missing: %+v", snap.Counters)
	}
	if snap.Gauges["index.resplit_pending"] == 0 {
		t.Fatal("capped batch should leave a deferred backlog")
	}
	for db.Metrics().Gauges["index.resplit_pending"] > 0 {
		if _, err := db.Add([]float64{rng.NormFloat64(), rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	// Exactness held throughout.
	res := db.SearchByExample([]float64{0, 0}, db.Len())
	if len(res) != db.Len() {
		t.Fatalf("found %d of %d items", len(res), db.Len())
	}
}
