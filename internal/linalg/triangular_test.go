package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPD returns a random symmetric positive-definite matrix with
// condition number controlled by the diagonal boost.
func randomSPD(rng *rand.Rand, n int, boost float64) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	spd := a.Mul(a.T())
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += boost
	}
	return spd
}

func TestCholeskyUpperReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 8, 17, 32} {
		m := randomSPD(rng, n, 0.5)
		u, err := m.CholeskyUpper()
		if err != nil {
			t.Fatalf("n=%d: CholeskyUpper: %v", n, err)
		}
		ud := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				ud.Set(i, j, u.At(i, j))
			}
		}
		got := ud.T().Mul(ud) // Uᵀ U must equal m
		if !got.Equal(m, 1e-9) {
			t.Fatalf("n=%d: UᵀU != m\n%v\nvs\n%v", n, got, m)
		}
	}
}

func TestCholeskyUpperQuadFormIdentity(t *testing.T) {
	// v' m v == ||U v||² up to rounding — the whitening identity the
	// full-scheme distance relies on.
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{2, 5, 16} {
		m := randomSPD(rng, n, 1)
		u, err := m.CholeskyUpper()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			v := make(Vector, n)
			for i := range v {
				v[i] = rng.NormFloat64() * 2
			}
			want := m.QuadForm(v)
			uv := u.MulVec(v)
			got := uv.Dot(uv)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("n=%d: ||Uv||²=%v, v'mv=%v", n, got, want)
			}
		}
	}
}

func TestCholeskyUpperNotPD(t *testing.T) {
	m := fromRows([]Vector{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := m.CholeskyUpper(); err == nil {
		t.Fatal("expected ErrSingular for an indefinite matrix")
	}
}

func TestUpperTriAtPanicsBelowDiagonal(t *testing.T) {
	u := &UpperTri{N: 2, Data: []float64{1, 2, 3}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	u.At(1, 0)
}

// The floor must sit below the true smallest eigenvalue (soundness —
// it feeds a lower bound the k-NN search prunes with) and within a few
// percent of it (tightness — a sloppy floor weakens pruning).
func TestSymLambdaMinFloorSoundAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 2, 3, 8, 16, 32} {
		for trial := 0; trial < 10; trial++ {
			m := randomSPD(rng, n, 0.1+rng.Float64()*3)
			vals, _ := EigenSym(m)
			trueMin := vals[len(vals)-1]
			floor := SymLambdaMinFloor(m)
			if floor > trueMin*(1+1e-9) {
				t.Fatalf("n=%d: floor %v exceeds true λ_min %v", n, floor, trueMin)
			}
			if floor < 0 {
				t.Fatalf("n=%d: negative floor %v for a PD matrix", n, floor)
			}
			// Bisection terminates at 0.1% of the ceiling, so allow a
			// modest relative slack against the true minimum.
			if trueMin > 0 && floor < trueMin*0.98 {
				t.Fatalf("n=%d: floor %v too loose for λ_min %v", n, floor, trueMin)
			}
		}
	}
}

// The ceiling must sit above the true largest eigenvalue (soundness —
// it scales the ball bound a swept search skips storage blocks on) and
// within a few percent of it (tightness), on well-conditioned matrices
// and on ill-conditioned ones: a nearly singular Gram matrix, a diagonal
// spread over twelve decades, and the 2×2 whose Gershgorin disc is
// twice its spectrum.
func TestSymLambdaMaxCeilSoundAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	var cases []*Matrix
	for _, n := range []int{1, 2, 3, 8, 16, 32, 48} {
		for trial := 0; trial < 10; trial++ {
			cases = append(cases, randomSPD(rng, n, 0.1+rng.Float64()*3))
		}
		// Rank-deficient Gram matrix plus a tiny ridge: λ_min/λ_max ≈ 1e-12.
		a := NewMatrix(n, max(1, n/2))
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		g := a.Mul(a.T())
		for i := 0; i < n; i++ {
			g.Data[i*n+i] += 1e-12
		}
		cases = append(cases, g)
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Data[i*n+i] = math.Pow(10, 12*rng.Float64()-6)
		}
		cases = append(cases, d)
	}
	cases = append(cases, fromRows([]Vector{{2, 1.9}, {1.9, 2}})) // eigenvalues 3.9, 0.1
	for i, m := range cases {
		vals, _ := EigenSym(m)
		trueMax := vals[0]
		ceil := SymLambdaMaxCeil(m)
		if ceil < trueMax {
			t.Fatalf("case %d (n=%d): ceiling %v under true λ_max %v", i, m.Rows, ceil, trueMax)
		}
		if ceil > trueMax*1.02 {
			t.Fatalf("case %d (n=%d): ceiling %v too loose for λ_max %v", i, m.Rows, ceil, trueMax)
		}
	}
	if got := SymLambdaMaxCeil(fromRows([]Vector{{1, math.NaN()}, {math.NaN(), 1}})); !math.IsInf(got, 1) {
		t.Fatalf("ceiling of a NaN matrix = %v, want +Inf", got)
	}
}

func TestSymLambdaMinFloorIllConditioned(t *testing.T) {
	// Strong off-diagonal coupling: Gershgorin alone would give 0, the
	// bisection must still certify a positive floor.
	m := fromRows([]Vector{{2, 1.9}, {1.9, 2}}) // eigenvalues 3.9, 0.1
	floor := SymLambdaMinFloor(m)
	if floor <= 0 || floor > 0.1+1e-9 {
		t.Fatalf("floor = %v, want in (0, 0.1]", floor)
	}
}

func BenchmarkLambdaMinFloorVsEigen32(b *testing.B) {
	rng := rand.New(rand.NewSource(74))
	m := randomSPD(rng, 32, 1)
	b.Run("floor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SymLambdaMinFloor(m)
		}
	})
	b.Run("eigen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EigenSym(m)
		}
	})
}
