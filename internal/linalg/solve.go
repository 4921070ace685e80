package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular.
var ErrSingular = errors.New("linalg: matrix is singular")

// Inverse returns the inverse of a square matrix via Gauss-Jordan
// elimination with partial pivoting. It returns ErrSingular when a pivot
// falls below a tolerance scaled by the matrix magnitude.
func (m *Matrix) Inverse() (*Matrix, error) {
	if !m.IsSquare() {
		panic("linalg: Inverse of non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)

	// Tolerance scaled by the largest magnitude entry.
	var maxAbs float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := 1e-12 * math.Max(maxAbs, 1)

	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in column at/below the diagonal.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best <= tol {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		p := a.At(col, col)
		arow, irow := a.Row(col), inv.Row(col)
		for j := 0; j < n; j++ {
			arow[j] /= p
			irow[j] /= p
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			ar, ir := a.Row(r), inv.Row(r)
			for j := 0; j < n; j++ {
				ar[j] -= f * arow[j]
				ir[j] -= f * irow[j]
			}
		}
	}
	return inv, nil
}

// Cholesky returns the lower-triangular L with m = L L' for a symmetric
// positive-definite matrix, or ErrSingular when m is not positive definite.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if !m.IsSquare() {
		panic("linalg: Cholesky of non-square matrix")
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// Det returns the determinant of a square matrix via LU decomposition with
// partial pivoting. A singular matrix yields 0.
func (m *Matrix) Det() float64 {
	if !m.IsSquare() {
		panic("linalg: Det of non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	det := 1.0
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return 0
		}
		if pivot != col {
			swapRows(a, pivot, col)
			det = -det
		}
		p := a.At(col, col)
		det *= p
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / p
			if f == 0 {
				continue
			}
			ar, ac := a.Row(r), a.Row(col)
			for j := col; j < n; j++ {
				ar[j] -= f * ac[j]
			}
		}
	}
	return det
}

// InverseOrRegularizedInfo inverts m, falling back to RegularizedInverse
// when m is singular. This implements the regularization the paper cites
// for the small-sample covariance singularity problem (Zhou & Huang
// [21]); it always succeeds for symmetric positive semi-definite input.
// regularized is false when m inverted directly and true when the
// returned inverse is of a ridge-perturbed (or, in the last resort,
// identity-scaled) matrix. Callers surface this as a degraded-health
// signal instead of a crash.
func (m *Matrix) InverseOrRegularizedInfo(eps float64) (inv *Matrix, regularized bool) {
	if inv, err := m.Inverse(); err == nil {
		return inv, false
	}
	return m.RegularizedInverse(eps), true
}

// RegularizedInverse inverts m after unconditionally adding an
// increasing ridge eps*I scaled by the mean diagonal magnitude — the
// fallback path of InverseOrRegularizedInfo, exposed so fault-injection can
// force it even for well-conditioned matrices.
func (m *Matrix) RegularizedInverse(eps float64) *Matrix {
	if eps <= 0 {
		eps = 1e-8
	}
	// Scale the ridge by the mean diagonal magnitude so it is meaningful
	// for covariances of any magnitude.
	var meanDiag float64
	for i := 0; i < m.Rows; i++ {
		meanDiag += math.Abs(m.At(i, i))
	}
	if m.Rows > 0 {
		meanDiag /= float64(m.Rows)
	}
	if meanDiag == 0 {
		meanDiag = 1
	}
	ridge := eps * meanDiag
	for tries := 0; tries < 40; tries++ {
		r := m.Clone()
		for i := 0; i < r.Rows; i++ {
			r.Data[i*r.Cols+i] += ridge
		}
		if inv, err := r.Inverse(); err == nil {
			return inv
		}
		ridge *= 10
	}
	// Unreachable for PSD input; fall back to a scaled identity.
	return Identity(m.Rows).Scale(1 / math.Max(meanDiag, 1e-300))
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}
