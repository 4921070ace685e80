package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// randSPDMatrix returns a random symmetric positive-definite matrix for
// full-scheme metrics.
func randSPDMatrix(rng *rand.Rand, n int, boost float64) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += boost
	}
	return spd
}

func randVec(rng *rand.Rand, n int, scale float64) linalg.Vector {
	v := make(linalg.Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}

// batchMetrics builds one metric per family at the given dimension. The
// disjunctive aggregate mixes diagonal and whitened full-scheme parts so
// its batch path exercises both kernels.
func batchMetrics(rng *rand.Rand, dim int) map[string]BatchMetric {
	invDiag := make(linalg.Vector, dim)
	for i := range invDiag {
		invDiag[i] = 0.25 + rng.Float64()*2
	}
	full := NewQuadraticFull(randVec(rng, dim, 1), randSPDMatrix(rng, dim, 0.5))
	diag := NewQuadraticDiag(randVec(rng, dim, 1), invDiag)
	return map[string]BatchMetric{
		"euclidean": &Euclidean{Center: randVec(rng, dim, 1)},
		"quad-diag": diag,
		"quad-full": full,
		"disjunctive": NewDisjunctive(
			[]*Quadratic{full, diag, NewQuadraticFull(randVec(rng, dim, 1), randSPDMatrix(rng, dim, 1))},
			[]float64{1, 2, 0.5},
		),
	}
}

// flatten packs rows for EvalBatch.
func flatten(rows []linalg.Vector, dim int) []float64 {
	flat := make([]float64, len(rows)*dim)
	for r, v := range rows {
		copy(flat[r*dim:(r+1)*dim], v)
	}
	return flat
}

// With bound = +Inf abandonment is disabled and every batch entry must be
// bit-identical to the scalar Eval — the contract the k-NN substrates
// rely on for identical result sets.
func TestEvalBatchMatchesScalarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, dim := range []int{1, 3, 8, 13, 32, 33} {
		for name, m := range batchMetrics(rng, dim) {
			rows := make([]linalg.Vector, 64)
			for i := range rows {
				rows[i] = randVec(rng, dim, 2)
			}
			out := make([]float64, len(rows))
			m.EvalBatch(flatten(rows, dim), dim, math.Inf(1), out)
			for i, v := range rows {
				if want := m.Eval(v); out[i] != want {
					t.Fatalf("%s dim=%d row %d: batch %v != scalar %v", name, dim, i, out[i], want)
				}
			}
		}
	}
}

// checkAbandonInvariant asserts the EvalBatch contract for one batch:
// finite entries are bit-identical to scalar Eval, +Inf entries truly
// exceed the bound, and no entry at or under the bound was abandoned.
// It returns the number of abandoned entries.
func checkAbandonInvariant(t *testing.T, name string, m BatchMetric, rows []linalg.Vector, bound float64) int {
	t.Helper()
	dim := m.Dim()
	out := make([]float64, len(rows))
	m.EvalBatch(flatten(rows, dim), dim, bound, out)
	abandoned := 0
	for i, v := range rows {
		want := m.Eval(v)
		if math.IsInf(out[i], 1) && !math.IsInf(want, 1) {
			abandoned++
			if !(want > bound) {
				t.Fatalf("%s: row %d abandoned but scalar %v <= bound %v", name, i, want, bound)
			}
			continue
		}
		if out[i] != want {
			t.Fatalf("%s: row %d batch %v != scalar %v (bound %v)", name, i, out[i], want, bound)
		}
	}
	return abandoned
}

// Random finite bounds: abandonment may only drop candidates that are
// provably over the bound, and must actually trigger on tight bounds so
// the fast path is known to be exercised.
func TestEvalBatchAbandonment(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, dim := range []int{8, 32} {
		for name, m := range batchMetrics(rng, dim) {
			rows := make([]linalg.Vector, 128)
			dists := make([]float64, len(rows))
			for i := range rows {
				rows[i] = randVec(rng, dim, 3)
				dists[i] = m.Eval(rows[i])
			}
			// A bound at the 10th percentile must abandon most rows; a
			// bound above the max must abandon none.
			lo, hi := percentile(dists, 0.1), maxOf(dists)*1.01
			if n := checkAbandonInvariant(t, name, m, rows, lo); n == 0 {
				t.Fatalf("%s dim=%d: tight bound %v abandoned nothing", name, dim, lo)
			}
			if n := checkAbandonInvariant(t, name, m, rows, hi); n != 0 {
				t.Fatalf("%s dim=%d: loose bound %v abandoned %d rows", name, dim, hi, n)
			}
			for trial := 0; trial < 20; trial++ {
				checkAbandonInvariant(t, name, m, rows, lo+rng.Float64()*(hi-lo))
			}
		}
	}
}

// A bound that is exactly a candidate's own distance must keep that
// candidate: a sweep re-evaluates the vector that set the k-th best
// against it. For the Eq. 5 aggregate this is a rounding question — the
// parts are compared, the aggregate is reported, and fl(total/Σ w/d) can
// fall an ulp under the smallest part — so the one-part disjunctive a
// single-cluster session builds is in the grid.
func TestEvalBatchKeepsCandidateAtItsOwnDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, dim := range []int{3, 16} {
		ms := batchMetrics(rng, dim)
		ms["disjunctive-1"] = NewDisjunctive(
			[]*Quadratic{NewQuadraticFull(randVec(rng, dim, 1), randSPDMatrix(rng, dim, 0.5))}, []float64{3})
		for name, m := range ms {
			rows := make([]linalg.Vector, 256)
			for i := range rows {
				rows[i] = randVec(rng, dim, 3)
			}
			for _, v := range rows {
				checkAbandonInvariant(t, name, m, rows, m.Eval(v))
			}
		}
	}
}

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort: tiny slices
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[int(p*float64(len(s)-1))]
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// A non-positive-definite weight matrix falls back to the dense
// quadratic form, whose cross terms are sign-indefinite: the batch path
// must then evaluate exactly and never abandon, even under a zero bound.
func TestEvalBatchNonPDFallbackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	inv := linalg.FromRows([]linalg.Vector{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	q := NewQuadraticFull(linalg.Vector{0.5, -0.5}, inv)
	rows := make([]linalg.Vector, 32)
	for i := range rows {
		rows[i] = randVec(rng, 2, 2)
	}
	out := make([]float64, len(rows))
	q.EvalBatch(flatten(rows, 2), 2, 0, out)
	for i, v := range rows {
		if want := q.Eval(v); out[i] != want {
			t.Fatalf("row %d: batch %v != scalar %v", i, out[i], want)
		}
	}
}

func TestEvalBatchLayoutPanics(t *testing.T) {
	e := &Euclidean{Center: linalg.Vector{0, 0}}
	mustPanic(t, func() { e.EvalBatch(make([]float64, 6), 3, 0, make([]float64, 2)) })
	mustPanic(t, func() { e.EvalBatch(make([]float64, 5), 2, 0, make([]float64, 2)) })
}

// FuzzEvalBatch drives the abandonment invariant with fuzzer-chosen
// bounds and data: abandonment must never change a result that belongs
// in any k-NN merge (entries <= bound stay bit-identical; +Inf entries
// provably exceed the bound).
func FuzzEvalBatch(f *testing.F) {
	f.Add(int64(1), 4.0, uint8(7))
	f.Add(int64(2), 0.0, uint8(16))
	f.Add(int64(3), 1e9, uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, bound float64, dim8 uint8) {
		dim := int(dim8)%48 + 1
		if math.IsNaN(bound) {
			t.Skip()
		}
		bound = math.Abs(bound)
		rng := rand.New(rand.NewSource(seed))
		for name, m := range batchMetrics(rng, dim) {
			rows := make([]linalg.Vector, 16)
			for i := range rows {
				rows[i] = randVec(rng, dim, 2.5)
			}
			checkAbandonInvariant(t, name, m, rows, bound)
			checkAbandonInvariant(t, name, m, rows, math.Inf(1))
		}
	})
}

// The α = ±2 fast paths in Aggregate.combine must round identically to
// the general math.Pow formulation they replace.
func TestAggregateIntAlphaMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const dim = 6
	parts := make([]Metric, 3)
	for i := range parts {
		parts[i] = &Euclidean{Center: randVec(rng, dim, 1.5)}
	}
	for _, alpha := range []float64{2, -2} {
		a := NewAggregate(parts, alpha)
		for trial := 0; trial < 200; trial++ {
			x := randVec(rng, dim, 3)
			got := a.Eval(x)
			// General path, spelled out with math.Pow as combine used to.
			var s float64
			for _, p := range parts {
				d := p.Eval(x)
				if d < epsilonDist {
					d = epsilonDist
				}
				s += math.Pow(d, alpha)
			}
			want := math.Pow(s/float64(len(parts)), 1/alpha)
			if got != want {
				t.Fatalf("alpha=%v: fast %v != pow %v at trial %d", alpha, got, want, trial)
			}
		}
	}
}

// Satellite benchmark: Aggregate.combine integer-α specialization vs the
// math.Pow general path it replaces.
func BenchmarkAggregateCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(94))
	const dim = 32
	parts := make([]Metric, 4)
	for i := range parts {
		parts[i] = &Euclidean{Center: randVec(rng, dim, 1)}
	}
	x := randVec(rng, dim, 2)
	b.Run("alpha-2-fast", func(b *testing.B) {
		a := NewAggregate(parts, -2)
		for i := 0; i < b.N; i++ {
			_ = a.Eval(x)
		}
	})
	b.Run("alpha-2-pow", func(b *testing.B) {
		// The pre-specialization general path: force it with a non-integer
		// α that rounds to the same exponent behaviour class.
		a := NewAggregate(parts, -2.0000001)
		for i := 0; i < b.N; i++ {
			_ = a.Eval(x)
		}
	})
}

// BenchmarkEvalBatch compares the scalar per-row loop against the batch
// kernel with and without a pruning bound, full scheme at dim 32 — the
// cell the acceptance criteria care about.
func BenchmarkEvalBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(95))
	const dim, n = 32, 1024
	q := NewQuadraticFull(randVec(rng, dim, 1), randSPDMatrix(rng, dim, 0.5))
	rows := make([]linalg.Vector, n)
	dists := make([]float64, n)
	for i := range rows {
		rows[i] = randVec(rng, dim, 2)
		dists[i] = q.Eval(rows[i])
	}
	flat := flatten(rows, dim)
	out := make([]float64, n)
	bound := percentile(dists, 0.05)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := range rows {
				out[r] = q.Eval(rows[r])
			}
		}
	})
	b.Run("batch-nobound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.EvalBatch(flat, dim, math.Inf(1), out)
		}
	})
	b.Run("batch-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.EvalBatch(flat, dim, bound, out)
		}
	})
}
