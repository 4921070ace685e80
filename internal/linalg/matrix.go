package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d Vector) *Matrix {
	m := NewMatrix(len(d), len(d))
	for i, v := range d {
		m.Data[i*len(d)+i] = v
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Diagonal returns a copy of the main diagonal.
func (m *Matrix) Diagonal() Vector {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	out := make(Vector, n)
	for i := 0; i < n; i++ {
		out[i] = m.At(i, i)
	}
	return out
}

// T returns the transpose of m.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// AddScaledInPlace adds s*b to m in place.
func (m *Matrix) AddScaledInPlace(s float64, b *Matrix) {
	m.mustSameShape(b)
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
}

// Mul returns the matrix product m b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)·(%dx%d)", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m v.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)·(%d)", m.Rows, m.Cols, len(v)))
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out
}

// QuadForm returns the quadratic form v' m v for square m.
func (m *Matrix) QuadForm(v Vector) float64 {
	if m.Rows != m.Cols || m.Rows != len(v) {
		panic("linalg: QuadForm shape mismatch")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		if vi == 0 {
			continue
		}
		var r float64
		for j, mv := range row {
			r += mv * v[j]
		}
		s += vi * r
	}
	return s
}

// QuadFormDiff returns (x-c)' m (x-c) for square m without materializing
// the difference vector, so concurrent callers share no scratch state —
// the hot-path form behind the full-scheme quadratic distance when many
// search workers evaluate one metric at once.
func (m *Matrix) QuadFormDiff(x, c Vector) float64 {
	if m.Rows != m.Cols || m.Rows != len(x) || len(x) != len(c) {
		panic("linalg: QuadFormDiff shape mismatch")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		di := x[i] - c[i]
		if di == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var r float64
		for j, mv := range row {
			r += mv * (x[j] - c[j])
		}
		s += di * r
	}
	return s
}

// IsSquare reports whether m is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Equal reports whether m and b agree to within tol elementwise.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.5g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Matrix) mustSameShape(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
