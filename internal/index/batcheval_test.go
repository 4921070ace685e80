package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// scalarOnly hides a metric's BatchMetric implementation so a search is
// forced onto the scalar evaluation path — the reference the batch path
// must match bit-for-bit.
type scalarOnly struct {
	distance.Metric
}

// testMetrics builds one metric per family over random data at dim.
func testMetrics(rng *rand.Rand, dim int) map[string]distance.Metric {
	center := make(linalg.Vector, dim)
	center2 := make(linalg.Vector, dim)
	invDiag := make(linalg.Vector, dim)
	for i := 0; i < dim; i++ {
		center[i] = rng.NormFloat64() * 2
		center2[i] = rng.NormFloat64() * 2
		invDiag[i] = 0.2 + rng.Float64()
	}
	spd := func() *linalg.Matrix {
		a := linalg.NewMatrix(dim, dim)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		m := a.Mul(a.T())
		for i := 0; i < dim; i++ {
			m.Data[i*dim+i] += 0.5
		}
		return m
	}
	full := distance.NewQuadraticFull(center, spd())
	return map[string]distance.Metric{
		"euclidean": &distance.Euclidean{Center: center},
		"quad-diag": distance.NewQuadraticDiag(center, invDiag),
		"quad-full": full,
		"disjunctive": distance.NewDisjunctive(
			[]*distance.Quadratic{full, distance.NewQuadraticFull(center2, spd())},
			[]float64{2, 1},
		),
	}
}

// assertSameKNN holds got to want bit for bit: same ids, same
// Float64bits, same order.
func assertSameKNN(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// The batched leaf sweep must return bit-identical k-NN results to the
// scalar path on every substrate — sequential tree and parallel tree —
// across metric families and dimensions.
func TestBatchKNNMatchesScalarAllSubstrates(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	for _, dim := range []int{4, 32} {
		n := 2000
		s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
		tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
		par := forceParallel(tree, 4)
		for name, m := range testMetrics(rng, dim) {
			scalar := scalarOnly{m}
			for _, k := range []int{1, 10, 64} {
				want, wstats := tree.KNN(scalar, k)
				if wstats.BatchedEvals != 0 || wstats.AbandonedEvals != 0 {
					t.Fatalf("%s dim=%d: scalar-only search reported batch work %+v", name, dim, wstats)
				}

				got, stats := tree.KNN(m, k)
				assertSameKNN(t, name+"/seq", want, got)
				if stats.BatchedEvals != stats.DistanceEvals {
					t.Fatalf("%s dim=%d seq: BatchedEvals %d != DistanceEvals %d",
						name, dim, stats.BatchedEvals, stats.DistanceEvals)
				}

				got, stats = par.KNN(m, k)
				assertSameKNN(t, name+"/par", want, got)
				if stats.BatchedEvals != stats.DistanceEvals {
					t.Fatalf("%s dim=%d par: BatchedEvals %d != DistanceEvals %d",
						name, dim, stats.BatchedEvals, stats.DistanceEvals)
				}
			}
		}
	}
}

// Early abandonment must actually trigger on realistic searches (the
// perf win exists) and every abandoned candidate still counts as a
// distance evaluation.
func TestBatchKNNAbandonsAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	const n, dim = 4000, 16
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := testMetrics(rng, dim)["quad-full"]
	_, stats := tree.KNN(m, 5)
	if stats.AbandonedEvals == 0 {
		t.Fatal("expected some abandoned evaluations on a full-scheme search")
	}
	if stats.AbandonedEvals > stats.BatchedEvals || stats.BatchedEvals > stats.DistanceEvals {
		t.Fatalf("counter ordering violated: %+v", stats)
	}
}

// The refinement searcher's seeded traversal shares evalLeaf with the
// plain search; seeding must not disturb batch/scalar identity.
func TestBatchSeededKNNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	const n, dim = 3000, 8
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := testMetrics(rng, dim)["disjunctive"]

	rs := NewRefinementSearcher(tree)
	rb := NewRefinementSearcher(tree)
	for round := 0; round < 3; round++ {
		want, _ := rs.KNN(scalarOnly{m}, 20)
		got, stats := rb.KNN(m, 20)
		assertSameKNN(t, "seeded", want, got)
		if round > 0 && stats.CacheSeedLeaves == 0 {
			t.Fatal("refinement cache did not seed")
		}
	}
}

// FuzzBatchKNN drives substrate-level identity with fuzzer-chosen data:
// whatever the store geometry, query position and k, the batch path must
// reproduce the scalar result list exactly.
func FuzzBatchKNN(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(4))
	f.Add(int64(2), uint8(1), uint8(16))
	f.Add(int64(3), uint8(40), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k8, dim8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		dim := int(dim8)%16 + 1
		k := int(k8)%48 + 1
		s := newStore(synth.Gaussian[linalg.Vector](rng, 400+rng.Intn(200), dim, 3))
		tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
		for name, m := range testMetrics(rng, dim) {
			want, _ := tree.KNN(scalarOnly{m}, k)
			got, _ := tree.KNN(m, k)
			assertSameKNN(t, name+"/seq", want, got)
		}
	})
}

// A huge k (heap never fills, bound stays at the sentinel) must disable
// abandonment so every candidate — however far — is admitted.
func TestBatchKNNHeapNeverFills(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	const n, dim = 500, 6
	s := newStore(synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	tree := NewHybridTree(s, TreeOptions{Parallelism: 1})
	m := testMetrics(rng, dim)["quad-full"]
	got, stats := tree.KNN(m, n*2)
	want, _ := tree.KNN(scalarOnly{m}, n*2)
	assertSameKNN(t, "huge-k", want, got)
	if len(got) != n {
		t.Fatalf("got %d results, want the whole store (%d)", len(got), n)
	}
	if stats.AbandonedEvals != 0 {
		t.Fatalf("abandoned %d evals while the heap could never fill", stats.AbandonedEvals)
	}
	for _, r := range got {
		if math.IsInf(r.Dist, 1) {
			t.Fatal("abandonment marker leaked into results")
		}
	}
}
