package linalg

import (
	"math/rand"
	"testing"
)

// fromRows builds a matrix whose rows are the given vectors.
func fromRows(rows []Vector) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive-definite matrix A A' + I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	a := randMat(rng, n, n)
	m := a.Mul(a.T())
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += 1
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 4, 4)
	if got := Identity(4).Mul(m); !got.Equal(m, 1e-15) {
		t.Error("I·m != m")
	}
	if got := m.Mul(Identity(4)); !got.Equal(m, 1e-15) {
		t.Error("m·I != m")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := fromRows([]Vector{{1, 2, 3}, {4, 5, 6}})
	want := fromRows([]Vector{{1, 4}, {2, 5}, {3, 6}})
	if !m.T().Equal(want, 0) {
		t.Errorf("T = \n%v", m.T())
	}
	if !m.T().T().Equal(m, 0) {
		t.Error("double transpose != original")
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := fromRows([]Vector{{1, 2}, {3, 4}})
	b := fromRows([]Vector{{5, 6}, {7, 8}})
	if got := a.Add(b); !got.Equal(fromRows([]Vector{{6, 8}, {10, 12}}), 0) {
		t.Errorf("Add = \n%v", got)
	}
	if got := b.Sub(a); !got.Equal(fromRows([]Vector{{4, 4}, {4, 4}}), 0) {
		t.Errorf("Sub = \n%v", got)
	}
	if got := a.Scale(2); !got.Equal(fromRows([]Vector{{2, 4}, {6, 8}}), 0) {
		t.Errorf("Scale = \n%v", got)
	}
}

func TestMatrixMulKnown(t *testing.T) {
	a := fromRows([]Vector{{1, 2}, {3, 4}})
	b := fromRows([]Vector{{0, 1}, {1, 0}})
	want := fromRows([]Vector{{2, 1}, {4, 3}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Errorf("Mul = \n%v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([]Vector{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec(Vector{1, 0, -1})
	if !got.Equal(Vector{-2, -2}, 0) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestQuadForm(t *testing.T) {
	m := fromRows([]Vector{{2, 0}, {0, 3}})
	if got := m.QuadForm(Vector{1, 2}); got != 14 {
		t.Errorf("QuadForm = %v, want 14", got)
	}
	// QuadForm must agree with v' (M v).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		mm := randMat(rng, 5, 5)
		v := randVec(rng, 5)
		want := v.Dot(mm.MulVec(v))
		if got := mm.QuadForm(v); !almostEq(got, want, 1e-9) {
			t.Fatalf("QuadForm = %v want %v", got, want)
		}
	}
}

func TestDiagAndDiagonal(t *testing.T) {
	d := Diag(Vector{1, 2, 3})
	if d.At(0, 0) != 1 || d.At(1, 1) != 2 || d.At(2, 2) != 3 || d.At(0, 1) != 0 {
		t.Errorf("Diag = \n%v", d)
	}
	if got := d.Diagonal(); !got.Equal(Vector{1, 2, 3}, 0) {
		t.Errorf("Diagonal = %v", got)
	}
}

func TestTrace(t *testing.T) {
	m := fromRows([]Vector{{1, 9}, {9, 2}})
	if got := m.Trace(); got != 3 {
		t.Errorf("Trace = %v", got)
	}
}

func TestRowColAliasing(t *testing.T) {
	m := fromRows([]Vector{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Error("Row must alias matrix storage")
	}
	c := m.Col(1)
	c[0] = -1
	if m.At(0, 1) == -1 {
		t.Error("Col must copy, not alias")
	}
}

func TestVectorBasicsCoverage(t *testing.T) {
	v := NewVector(3)
	if v.Dim() != 3 || !v.Equal(Vector{0, 0, 0}, 0) {
		t.Error("NewVector")
	}
	c := Vector{1, 2}.Clone()
	c[0] = 9
	if c.Equal(Vector{1, 2}, 0) {
		t.Error("Clone must copy")
	}
	// Equal with different lengths.
	if (Vector{1}).Equal(Vector{1, 2}, 0) {
		t.Error("Equal must reject length mismatch")
	}
}

func TestMatrixAddScaledInPlace(t *testing.T) {
	a := fromRows([]Vector{{1, 2}, {3, 4}})
	b := fromRows([]Vector{{1, 1}, {1, 1}})
	a.AddScaledInPlace(2, b)
	if !a.Equal(fromRows([]Vector{{3, 4}, {5, 6}}), 0) {
		t.Errorf("AddScaledInPlace = \n%v", a)
	}
}

func TestMatrixStringAndEqualShapes(t *testing.T) {
	m := fromRows([]Vector{{1, 2}})
	if s := m.String(); len(s) == 0 {
		t.Error("String must render")
	}
	if m.Equal(fromRows([]Vector{{1, 2}, {3, 4}}), 0) {
		t.Error("Equal must reject shape mismatch")
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanicM(t, func() { NewMatrix(-1, 2) })
	mustPanicM(t, func() { fromRows([]Vector{{1}}).Add(fromRows([]Vector{{1, 2}})) })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).Mul(fromRows([]Vector{{1, 2}})) })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).MulVec(Vector{1}) })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).Trace() })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).QuadForm(Vector{1, 2}) })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).Inverse() })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).Cholesky() })
	mustPanicM(t, func() { fromRows([]Vector{{1, 2}}).Det() })
}

func mustPanicM(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
