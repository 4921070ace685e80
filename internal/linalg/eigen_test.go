package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestEigenSymDiagonal(t *testing.T) {
	m := Diag(Vector{3, 1, 2})
	vals, vecs := EigenSym(m)
	if !vals.Equal(Vector{3, 2, 1}, 1e-12) {
		t.Errorf("values = %v", vals)
	}
	// Each eigenvector column must satisfy m v = λ v.
	for j := 0; j < 3; j++ {
		v := vecs.Col(j)
		mv := m.MulVec(v)
		if !mv.Equal(v.Scale(vals[j]), 1e-10) {
			t.Errorf("column %d is not an eigenvector", j)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := fromRows([]Vector{{2, 1}, {1, 2}})
	vals, _ := EigenSym(m)
	if !vals.Equal(Vector{3, 1}, 1e-12) {
		t.Errorf("values = %v", vals)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		m := randSPD(rng, n)
		vals, vecs := EigenSym(m)

		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Fatalf("trial %d: eigenvalues not descending: %v", trial, vals)
			}
		}
		// Orthonormal columns: V' V = I.
		if !vecs.T().Mul(vecs).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: eigenvectors not orthonormal", trial)
		}
		// Reconstruction: V diag(vals) V' = m.
		recon := vecs.Mul(Diag(vals)).Mul(vecs.T())
		if !recon.Equal(m, 1e-7) {
			t.Fatalf("trial %d: reconstruction failed", trial)
		}
	}
}

func TestEigenSymTraceAndDet(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		m := randSPD(rng, n)
		vals, _ := EigenSym(m)
		var sum, prod float64 = 0, 1
		for _, v := range vals {
			sum += v
			prod *= v
		}
		if !almostEq(sum, m.Trace(), 1e-8*math.Max(1, math.Abs(m.Trace()))) {
			t.Fatalf("trial %d: Σλ=%v trace=%v", trial, sum, m.Trace())
		}
		det := m.Det()
		if math.Abs(prod-det) > 1e-6*math.Max(1, math.Abs(det)) {
			t.Fatalf("trial %d: Πλ=%v det=%v", trial, prod, det)
		}
	}
}

func TestEigenSymZeroMatrix(t *testing.T) {
	vals, vecs := EigenSym(NewMatrix(3, 3))
	if !vals.Equal(Vector{0, 0, 0}, 0) {
		t.Errorf("values = %v", vals)
	}
	if !vecs.T().Mul(vecs).Equal(Identity(3), 1e-12) {
		t.Error("eigenvectors of zero matrix must still be orthonormal")
	}
}
