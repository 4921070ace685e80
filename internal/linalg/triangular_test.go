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
