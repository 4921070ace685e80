package distance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
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

// spdFamilies are the conditioning regimes the full-scheme kernels are
// generated over: a plain Wishart draw, one with axis scales 1…1e4, one
// whose axes share a common factor 3–10× the noise, one whose common
// factor is strong enough that the scaled λ_min falls under floorArmMin
// (the diagonal floor must be off), and an exactly diagonal W (the floor
// is the form itself).
var spdFamilies = []string{"wishart", "scaled", "correlated", "near-singular", "diagonal"}

// randWeight draws a weight matrix W of the named family together with a
// sampler of offsets distributed like the covariance W inverts, so that
// distances are χ²_n-sized whatever the conditioning.
func randWeight(rng *rand.Rand, n int, family string) (*linalg.Matrix, func() linalg.Vector) {
	cov := linalg.NewMatrix(n, n)
	commonFactor := func(lo, hi float64) {
		f := make(linalg.Vector, n)
		for k := range f {
			f[k] = lo + rng.Float64()*(hi-lo)
			if rng.Intn(2) == 0 {
				f[k] = -f[k]
			}
		}
		cov = linalg.Identity(n).Add(f.Outer(f))
	}
	switch family {
	case "wishart":
		cov = randSPDMatrix(rng, n, 0.5)
	case "scaled":
		cov = randSPDMatrix(rng, n, float64(n))
		for i := 0; i < n; i++ {
			si := math.Pow(10, 4*rng.Float64())
			for j := 0; j < n; j++ {
				cov.Data[i*n+j] *= si
				cov.Data[j*n+i] *= si
			}
		}
	case "correlated":
		commonFactor(3, 10)
	case "near-singular":
		commonFactor(300, 1000)
	case "diagonal":
		for k := 0; k < n; k++ {
			cov.Data[k*n+k] = math.Pow(10, 4*rng.Float64()-2)
		}
	default:
		panic("unknown family " + family)
	}
	l, err := cov.Cholesky()
	if err != nil {
		panic(err)
	}
	w, err := cov.Inverse()
	if err != nil {
		panic(err)
	}
	return w, func() linalg.Vector { return l.MulVec(randVec(rng, n, 1)) }
}

// familyMetrics builds the three shapes a full-scheme part is searched
// in — bare, as the one-part aggregate a single-cluster session builds,
// and inside a three-part aggregate beside a diagonal part — over one
// family, plus a sampler of candidate rows around the first part.
func familyMetrics(rng *rand.Rand, dim int, family string) (map[string]BatchMetric, func() linalg.Vector) {
	w, offset := randWeight(rng, dim, family)
	center := offset()
	full := NewQuadraticFull(center, w)
	w2, offset2 := randWeight(rng, dim, family)
	full2 := NewQuadraticFull(center.Add(offset2()), w2)
	invDiag := w.Diagonal()
	diag := NewQuadraticDiag(center.Add(offset().Scale(2)), invDiag)
	ms := map[string]BatchMetric{
		"quad-full":     full,
		"disjunctive-1": NewDisjunctive([]*Quadratic{full}, []float64{3}),
		"disjunctive-3": NewDisjunctive([]*Quadratic{full, diag, full2}, []float64{1, 2, 0.5}),
	}
	return ms, func() linalg.Vector { return center.Add(offset().Scale(0.3 + 2*rng.Float64())) }
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

// fullParts lists a metric's Cholesky-whitened parts.
func fullParts(m BatchMetric) []*Quadratic {
	var parts []*Quadratic
	switch t := m.(type) {
	case *Quadratic:
		parts = []*Quadratic{t}
	case *Disjunctive:
		parts = t.Parts
	}
	var out []*Quadratic
	for _, p := range parts {
		if p.whiten != nil {
			out = append(out, p)
		}
	}
	return out
}

// refEvalBatch is EvalBatch as it stood before the point filter: the row
// kernel alone, a Disjunctive's parts held to the loosened bound and the
// abandoned parts of a survivor re-evaluated exactly.
func refEvalBatch(m BatchMetric, rows []linalg.Vector, bound float64) []float64 {
	out := make([]float64, len(rows))
	switch t := m.(type) {
	case *Quadratic:
		for r, row := range rows {
			out[r] = t.evalRowBound(row, bound)
		}
	case *Disjunctive:
		partBound := bound * (1 + disjunctiveSlack)
		parts := make([]float64, len(t.Parts))
		for r, row := range rows {
			alive := false
			for i, p := range t.Parts {
				parts[i] = p.evalRowBound(row, partBound)
				alive = alive || !math.IsInf(parts[i], 1)
			}
			if !alive {
				out[r] = math.Inf(1)
				continue
			}
			var denom float64
			for i, di := range parts {
				if math.IsInf(di, 1) {
					di = t.Parts[i].evalRowBound(row, math.Inf(1))
				}
				denom += t.Weights[i] / math.Max(di, epsilonDist)
			}
			out[r] = t.total / denom
		}
	}
	return out
}

// checkFilterInvariant asserts, for one batch and bound, that EvalBatch
// with the point filter in front writes what the unfiltered reference
// writes, bit for bit and +Inf for +Inf, and that every rejection is one
// the scalar Eval confirms. It returns the number of rejections.
func checkFilterInvariant(t *testing.T, name string, m BatchMetric, rows []linalg.Vector, bound float64) (rejected int) {
	t.Helper()
	dim := m.Dim()
	got := make([]float64, len(rows))
	m.EvalBatch(flatten(rows, dim), dim, bound, got)
	want := refEvalBatch(m, rows, bound)
	for r := range rows {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("%s: row %d bound %v: EvalBatch %v != reference %v", name, r, bound, got[r], want[r])
		}
	}
	for _, p := range fullParts(m) {
		// Both stages on every row, whatever a call's gates would have
		// skipped, and the filter as a call runs it.
		f := p.filter(bound)
		for r, row := range rows {
			byStage := p.floor != nil && p.floorExceeds(row, loosen(bound)) ||
				len(row) >= shortRows && p.shortRowsSum(row) > loosen(bound)
			if !f.rejects(p, row) && !byStage {
				continue
			}
			rejected++
			if d := p.Eval(row); !(d > bound) {
				t.Fatalf("%s: row %d rejected at bound %v but Eval = %v", name, r, bound, d)
			}
			if d := p.evalRowBound(row, bound); !math.IsInf(d, 1) {
				t.Fatalf("%s: row %d rejected at bound %v but evalRowBound = %v", name, r, bound, d)
			}
		}
	}
	return rejected
}

// The point filter as a generated property: over every conditioning
// family, dimensions that are and are not multiples of the 8-wide chunk,
// and all three shapes a full part is searched in, with the bound drawn
// at every candidate's own distance and one ulp either side of it (where
// a rejection that is not certified shows first), EvalBatch is the
// unfiltered kernel's output and every rejection is confirmed.
func TestPointFilterNeverChangesEvalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for _, family := range spdFamilies {
		rejected := 0
		for _, dim := range []int{1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 24, 31, 32, 33, 40, 47, 48} {
			ms, sample := familyMetrics(rng, dim, family)
			armed := ms["quad-full"].(*Quadratic).floor != nil
			switch {
			case family == "diagonal" && !armed:
				t.Fatalf("dim %d: diagonal W built no floor", dim)
			case family == "near-singular" && dim > 1 && armed:
				t.Fatalf("dim %d: near-singular W armed the floor", dim)
			}
			rows := make([]linalg.Vector, 24)
			for i := range rows {
				rows[i] = sample()
			}
			for name, m := range ms {
				name = family + "/" + name
				for _, v := range rows {
					d := m.Eval(v)
					for _, bound := range []float64{math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1))} {
						rejected += checkFilterInvariant(t, name, m, rows, bound)
					}
				}
				checkFilterInvariant(t, name, m, rows, math.Inf(1))
				checkFilterInvariant(t, name, m, rows, 0)
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: the filter rejected nothing", family)
		}
	}
}

// Stage 2's certificate is that its terms are the floats the exact kernel
// adds: the straight-line sum must equal, bit for bit, the same tree over
// whitened components accumulated by evalRowBound's own loop.
func TestShortRowsAreTheExactKernelsTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, family := range spdFamilies {
		for _, dim := range []int{8, 9, 16, 33, 48} {
			w, offset := randWeight(rng, dim, family)
			q := NewQuadraticFull(offset(), w)
			for trial := 0; trial < 32; trial++ {
				row := q.Center.Add(offset().Scale(3 * rng.Float64()))
				var sq [shortRows]float64
				for i := range sq {
					j := dim - shortRows + i
					ur := q.whiten.Data[q.whiten.RowOff(j):]
					var r float64
					for k, cv := range q.Center[j:] {
						r += ur[k] * (row[j+k] - cv)
					}
					sq[i] = r * r
				}
				want := ((sq[0] + sq[1]) + (sq[2] + sq[3])) + ((sq[4] + sq[5]) + (sq[6] + sq[7]))
				if got := q.shortRowsSum(row); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s dim %d: shortRowsSum %v != %v", family, dim, got, want)
				}
			}
		}
	}
}

// A stage that stops paying sits out gateRest candidates at a time and is
// back as soon as it pays again; a part with no filter never runs one.
func TestPointFilterGates(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	const dim = 16
	w, offset := randWeight(rng, dim, "wishart")
	q := NewQuadraticFull(offset(), w)
	if q.floor == nil {
		t.Fatal("wishart W built no floor")
	}
	near, far := q.Center.Add(offset().Scale(0.1)), q.Center.Add(offset().Scale(100))
	bound := q.Eval(near) * 2

	f := q.filter(bound)
	for i := 0; i < 64; i++ {
		if !f.rejects(q, far) {
			t.Fatalf("far candidate %d not rejected", i)
		}
	}
	if f.floor != gateMax || f.rows != gateStart {
		t.Fatalf("after 64 floor rejections: floor %d rows %d", f.floor, f.rows)
	}
	for i := 0; i <= gateMax; i++ {
		if f.rejects(q, near) {
			t.Fatalf("near candidate %d rejected", i)
		}
	}
	if f.floor != -gateRest || f.rows >= 0 {
		t.Fatalf("after %d misses: floor %d rows %d, want both resting", gateMax+1, f.floor, f.rows)
	}
	g := f.floor
	for i := 0; i < gateRest; i++ {
		if g.open() {
			t.Fatalf("gate open %d candidates into its rest", i)
		}
	}
	if !g.open() {
		t.Fatal("gate still shut after its rest")
	}
	if g.miss(); g != -gateRest {
		t.Fatalf("one miss after a rest left %d", g)
	}
	for g, i := gate(gateNever), 0; i < 1000; i++ {
		if g.open() {
			t.Fatal("a stage the part does not have ran")
		}
	}

	for name, off := range map[string]pointFilter{
		"+Inf bound": q.filter(math.Inf(1)),
		"NaN bound":  q.filter(math.NaN()),
		"diagonal":   NewQuadraticDiag(q.Center, w.Diagonal()).filter(bound),
		"non-PD":     NewQuadraticFull(linalg.Vector{0, 0}, &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}}).filter(bound),
		"dim 7":      NewQuadraticFull(make(linalg.Vector, 7), randSPDMatrix(rng, 7, 1)).filter(bound),
	} {
		if off.on {
			t.Fatalf("%s: filter is on: %+v", name, off)
		}
	}
	nearSingular, _ := randWeight(rng, dim, "near-singular")
	if f := NewQuadraticFull(q.Center, nearSingular).filter(bound); !f.on || f.floor.open() || !f.rows.open() {
		t.Fatalf("unarmed floor: filter %+v, want the short rows alone", f)
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
	inv := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, -1
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
	f.Add(int64(1), 4.0, uint8(7), uint8(0))
	f.Add(int64(2), 0.0, uint8(16), uint8(1))
	f.Add(int64(3), 1e9, uint8(32), uint8(2))
	f.Add(int64(4), 20.0, uint8(12), uint8(3))
	f.Add(int64(5), 1e-300, uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, bound float64, dim8, family8 uint8) {
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
		// The same invariant, and identity with the unfiltered kernel, over
		// the conditioning family the fuzzer picked; the bound is also read
		// as a multiple of a candidate's own distance, which is where it
		// lands in a search.
		family := spdFamilies[int(family8)%len(spdFamilies)]
		ms, sample := familyMetrics(rng, dim, family)
		rows := make([]linalg.Vector, 16)
		for i := range rows {
			rows[i] = sample()
		}
		for name, m := range ms {
			for _, b := range []float64{bound, bound * m.Eval(rows[0]), m.Eval(rows[int(dim8)%len(rows)])} {
				checkAbandonInvariant(t, name, m, rows, b)
				checkFilterInvariant(t, name, m, rows, b)
			}
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

// mix16Shaped builds a collection shaped like the benchmark's mix16
// workloads at the given dimension — 1000 clusters of 64 points, centres
// N(0, 5²), unit noise — with its axes scaled geometrically up to 1e4
// ("scaled") or its noise sharing a common factor 3–10× the unit part
// ("correlated"), and the metric a session builds from one cluster of it.
func mix16Shaped(dim int, shape string) (flat []float64, m *Disjunctive) {
	const cats, perCat = 1000, 64
	rng := rand.New(rand.NewSource(int64(16 * dim)))
	scale, factor := make([]float64, dim), make([]float64, dim)
	for d := range scale {
		scale[d] = 1
		if shape == "scaled" && dim > 1 {
			scale[d] = math.Pow(10, 4*float64(d)/float64(dim-1))
		}
		if shape == "correlated" {
			factor[d] = 3 + 7*rng.Float64()
		}
	}
	flat = make([]float64, 0, cats*perCat*dim)
	center := make([]float64, dim)
	for cat := 0; cat < cats; cat++ {
		for d := range center {
			center[d] = rng.NormFloat64() * 5
		}
		for i := 0; i < perCat; i++ {
			g := rng.NormFloat64()
			for d := 0; d < dim; d++ {
				flat = append(flat, scale[d]*(center[d]+g*factor[d]+rng.NormFloat64()))
			}
		}
	}
	first := rng.Intn(cats) * perCat
	pts := make([]cluster.Point, perCat)
	for j := range pts {
		id := first + j
		pts[j] = cluster.Point{ID: id, Vec: flat[id*dim : (id+1)*dim], Score: 1}
	}
	m, _ = FromClustersShrunkInfo([]*cluster.Cluster{cluster.FromPoints(pts)}, cluster.FullInverse, float64(dim+1))
	return flat, m
}

// BenchmarkEvalBatch compares the scalar per-row loop against the batch
// kernel with and without a pruning bound, full scheme at dim 32, on
// random unclustered rows; the mix16/ cells then time the kernel a
// session's sweep runs — the one-part aggregate over a clustered
// collection, 256-row chunks, the bound at the 100th-nearest candidate —
// per candidate, for each dimension and conditioning.
func BenchmarkEvalBatch(b *testing.B) {
	for _, dim := range []int{3, 16, 32} {
		for _, shape := range []string{"isotropic", "scaled", "correlated"} {
			b.Run(fmt.Sprintf("mix16/dim%d/%s", dim, shape), func(b *testing.B) {
				flat, m := mix16Shaped(dim, shape)
				n := len(flat) / dim
				out := make([]float64, n)
				m.EvalBatch(flat, dim, math.Inf(1), out)
				sorted := append([]float64(nil), out...)
				sort.Float64s(sorted)
				bound := sorted[99]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < n; lo += 256 {
						hi := min(lo+256, n)
						m.EvalBatch(flat[lo*dim:hi*dim], dim, bound, out[lo:hi])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cand")
			})
		}
	}
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
