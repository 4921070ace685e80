package ann

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// The recall tests draw synth.RoundRobin blobs in [0,1]^dim: the data
// shape the paper's feedback loop assumes, and the one that historically
// disconnects naive proximity graphs, which the diversity heuristic must
// survive.

// newStore wraps vectors a test generated, which are always valid.
func newStore(vecs []linalg.Vector) *index.Store {
	s, err := index.NewStore(vecs)
	if err != nil {
		panic(err)
	}
	return s
}

func recallAtK(approx, exact []index.Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	truth := make(map[int]bool, len(exact))
	for _, r := range exact {
		truth[r.ID] = true
	}
	hit := 0
	for _, r := range approx {
		if truth[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// TestANNRecallFloor is the satellite recall gate: on clustered data a
// high efSearch must reach recall@10 >= 0.99 against the exhaustive
// scan, averaged over query points drawn from the same distribution.
func TestANNRecallFloor(t *testing.T) {
	const n, dim, k = 5000, 16, 10
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(1)), n, dim, 8, 1, 0.05))
	ix, err := New(store, Options{M: 16, EfConstruction: 128, Seed: 42})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	scan := index.NewLinearScan(store)
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const queries = 50
	for qi := 0; qi < queries; qi++ {
		base := store.Vector(rng.Intn(n))
		q := make(linalg.Vector, dim)
		for d := range q {
			q[d] = base[d] + rng.NormFloat64()*0.02
		}
		m := &distance.Euclidean{Center: q}
		exact, _ := scan.KNN(m, k)
		approx, stats, err := ix.KNNEf(context.Background(), m, k, 400)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if stats.GraphHops == 0 || stats.RefineEvals == 0 {
			t.Fatalf("query %d: expected graph work, stats=%+v", qi, stats)
		}
		sum += recallAtK(approx, exact)
	}
	if avg := sum / queries; avg < 0.99 {
		t.Fatalf("recall@%d = %.4f, want >= 0.99", k, avg)
	}
}

// TestANNDeterministicBuild: same seed + insertion order must produce
// identical graphs, observed through identical search results and hop
// counts on many queries.
func TestANNDeterministicBuild(t *testing.T) {
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(3)), 2000, 8, 5, 1, 0.05))
	opt := Options{M: 8, EfConstruction: 64, Seed: 7}
	a, err := New(store, opt)
	if err != nil {
		t.Fatalf("build a: %v", err)
	}
	b, err := New(store, opt)
	if err != nil {
		t.Fatalf("build b: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	for qi := 0; qi < 30; qi++ {
		q := make(linalg.Vector, store.Dim())
		for d := range q {
			q[d] = rng.Float64()
		}
		m := &distance.Euclidean{Center: q}
		ra, sa, _ := a.KNNEf(context.Background(), m, 10, 50)
		rb, sb, _ := b.KNNEf(context.Background(), m, 10, 50)
		if len(ra) != len(rb) {
			t.Fatalf("query %d: result lengths differ: %d vs %d", qi, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
		if sa.GraphHops != sb.GraphHops {
			t.Fatalf("query %d: hop counts differ: %d vs %d", qi, sa.GraphHops, sb.GraphHops)
		}
	}
}

// TestANNExhaustiveEfIsExact: ef >= n degenerates to the exact sweep —
// results bit-identical to the linear scan, including Dist bits.
func TestANNExhaustiveEfIsExact(t *testing.T) {
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(5)), 800, 8, 4, 1, 0.05))
	ix, err := New(store, Options{M: 8, Seed: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	scan := index.NewLinearScan(store)
	rng := rand.New(rand.NewSource(6))
	for qi := 0; qi < 20; qi++ {
		q := make(linalg.Vector, store.Dim())
		for d := range q {
			q[d] = rng.Float64()
		}
		m := &distance.Euclidean{Center: q}
		exact, _ := scan.KNN(m, 15)
		approx, stats, err := ix.KNNEf(context.Background(), m, 15, store.Len())
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if stats.GraphHops != 0 {
			t.Fatalf("query %d: exhaustive path took graph hops (%d)", qi, stats.GraphHops)
		}
		if len(exact) != len(approx) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range exact {
			if exact[i].ID != approx[i].ID ||
				math.Float64bits(exact[i].Dist) != math.Float64bits(approx[i].Dist) {
				t.Fatalf("query %d result %d: exact %+v approx %+v", qi, i, exact[i], approx[i])
			}
		}
	}
}

// TestANNMultipointNavigation: a disjunctive metric navigates once per
// cluster representative and still finds the neighbors of both modes.
func TestANNMultipointNavigation(t *testing.T) {
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(8)), 3000, 8, 2, 1, 0.05))
	ix, err := New(store, Options{M: 12, EfConstruction: 96, Seed: 9})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Two quadratic parts centered on two stored points from different
	// clusters (identity weighting = Euclidean^2 shape).
	mk := func(id int) *distance.Quadratic {
		return distance.NewQuadraticDiag(store.Vector(id).Clone(), ones(store.Dim()))
	}
	m := distance.NewDisjunctive([]*distance.Quadratic{mk(0), mk(1)}, []float64{1, 1})
	scan := index.NewLinearScan(store)
	exact, _ := scan.KNN(m, 10)
	approx, stats, err := ix.KNNEf(context.Background(), m, 10, 300)
	if err != nil {
		t.Fatalf("knn: %v", err)
	}
	if got := recallAtK(approx, exact); got < 0.9 {
		t.Fatalf("multipoint recall = %.3f, want >= 0.9", got)
	}
	if stats.RefineEvals == 0 {
		t.Fatal("no refinement evals recorded")
	}
}

func ones(dim int) linalg.Vector {
	w := make(linalg.Vector, dim)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestANNConcurrentInsertSearch is the -race satellite: readers search
// while a writer keeps growing the graph; every search must return
// valid ids and never race. (Run with -race in CI.)
func TestANNConcurrentInsertSearch(t *testing.T) {
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(10)), 4000, 8, 6, 1, 0.05))
	// Build the graph over the first half, then grow it concurrently
	// with searches. The store itself is fully populated up front (the
	// Database layer serializes store appends; here we exercise the
	// graph's own lock).
	ix := &Index{
		store: store,
		f32:   &StoreF32{dim: store.Dim()},
		opt:   Options{M: 8, EfConstruction: 48, Seed: 11}.withDefaults(),
		entry: -1,
	}
	ix.mL = 1 / math.Log(float64(ix.opt.M))
	half := store.Len() / 2
	ids := make([]int, half)
	for i := range ids {
		ids[i] = i
	}
	if err := ix.InsertBatch(ids); err != nil {
		t.Fatalf("seed insert: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := make(linalg.Vector, store.Dim())
				for d := range q {
					q[d] = rng.Float64()
				}
				res, _, err := ix.KNNEf(context.Background(), &distance.Euclidean{Center: q}, 5, 40)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for _, r := range res {
					if r.ID < 0 || r.ID >= store.Len() {
						t.Errorf("result id %d out of range", r.ID)
						return
					}
				}
			}
		}(w)
	}
	for id := half; id < store.Len(); id++ {
		if err := ix.Insert(id); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestANNCancellation: an already-cancelled context yields the context
// error and a refined (possibly empty) prefix, never a panic.
func TestANNCancellation(t *testing.T) {
	store := newStore(synth.RoundRobin[linalg.Vector](rand.New(rand.NewSource(12)), 1000, 8, 4, 1, 0.05))
	ix, err := New(store, Options{M: 8, Seed: 2})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := &distance.Euclidean{Center: store.Vector(0).Clone()}
	_, _, cerr := ix.KNNEf(ctx, m, 10, 64)
	if cerr == nil {
		t.Fatal("expected context error")
	}
}
