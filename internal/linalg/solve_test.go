package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestInverseKnown(t *testing.T) {
	m := fromRows([]Vector{{4, 7}, {2, 6}})
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([]Vector{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.Equal(want, 1e-12) {
		t.Errorf("Inverse = \n%v", inv)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		m := randSPD(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !m.Mul(inv).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: m·m⁻¹ != I", trial)
		}
		if !inv.Mul(m).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: m⁻¹·m != I", trial)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := fromRows([]Vector{{1, 2}, {2, 4}})
	if _, err := m.Inverse(); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		m := randSPD(rng, n)
		l, err := m.Cholesky()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !l.Mul(l.T()).Equal(m, 1e-8) {
			t.Fatalf("trial %d: L·L' != m", trial)
		}
		// Lower triangular: zeros above the diagonal.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("trial %d: L not lower-triangular", trial)
				}
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	m := fromRows([]Vector{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := m.Cholesky(); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestDetKnown(t *testing.T) {
	m := fromRows([]Vector{{1, 2}, {3, 4}})
	if got := m.Det(); !almostEq(got, -2, 1e-12) {
		t.Errorf("Det = %v, want -2", got)
	}
	if got := Identity(5).Det(); !almostEq(got, 1, 1e-12) {
		t.Errorf("Det(I) = %v", got)
	}
	sing := fromRows([]Vector{{1, 2}, {2, 4}})
	if got := sing.Det(); got != 0 {
		t.Errorf("Det(singular) = %v", got)
	}
}

func TestDetProductRule(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		a := randMat(rng, 4, 4)
		b := randMat(rng, 4, 4)
		got := a.Mul(b).Det()
		want := a.Det() * b.Det()
		if math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
			t.Fatalf("det(AB)=%v det(A)det(B)=%v", got, want)
		}
	}
}

func TestInverseOrRegularized(t *testing.T) {
	// Singular PSD matrix: rank-1 outer product.
	v := Vector{1, 2, 3}
	m := v.Outer(v)
	inv, regularized := m.InverseOrRegularizedInfo(1e-8)
	if inv == nil || !regularized {
		t.Fatalf("singular input: inverse %v, regularized %v", inv, regularized)
	}
	// The regularized inverse of (m + ridge I) must satisfy the ridge
	// equation approximately: (m + r I) inv ≈ I for some small r. We just
	// check it is finite and symmetric-ish.
	for _, x := range inv.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("regularized inverse has non-finite entries")
		}
	}
	// Non-singular input must match the plain inverse.
	rng := rand.New(rand.NewSource(19))
	spd := randSPD(rng, 4)
	want, _ := spd.Inverse()
	if got, regularized := spd.InverseOrRegularizedInfo(1e-8); regularized || !got.Equal(want, 1e-10) {
		t.Error("regularized path must not perturb non-singular input")
	}
}
