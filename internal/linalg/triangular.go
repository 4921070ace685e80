package linalg

import "math"

// UpperTri is a packed upper-triangular matrix: row j holds the entries
// U[j][j..n) contiguously, so Data has n(n+1)/2 components and a
// row-times-vector sweep walks memory strictly forward. It is the
// storage form of the whitening factor Lᵀ behind the full-scheme
// quadratic distance: packing halves the factor's footprint versus a
// dense matrix and keeps the hot triangular mat-vec cache-friendly.
type UpperTri struct {
	N    int
	Data []float64
}

// RowOff returns the offset of U[j][j] inside Data.
func (u *UpperTri) RowOff(j int) int { return j*u.N - j*(j-1)/2 }

// At returns U[i][j] for j >= i (entries below the diagonal are zero by
// definition and must not be requested).
func (u *UpperTri) At(i, j int) float64 {
	if j < i {
		panic("linalg: UpperTri.At below the diagonal")
	}
	return u.Data[u.RowOff(i)+j-i]
}

// MulVec returns U v (for tests; the hot paths inline the sweep).
func (u *UpperTri) MulVec(v Vector) Vector {
	if len(v) != u.N {
		panic("linalg: UpperTri.MulVec dimension mismatch")
	}
	out := make(Vector, u.N)
	for j := 0; j < u.N; j++ {
		off := u.RowOff(j)
		var s float64
		for i := j; i < u.N; i++ {
			s += u.Data[off+i-j] * v[i]
		}
		out[j] = s
	}
	return out
}

// CholeskyUpper factors a symmetric positive-definite m as m = Lᵀᵀ Lᵀ
// and returns the packed upper factor U = Lᵀ (so m = Uᵀ U and
// v' m v = ||U v||²). Only the lower triangle of m is read, matching
// Cholesky. Returns ErrSingular when m is not positive definite.
func (m *Matrix) CholeskyUpper() (*UpperTri, error) {
	l, err := m.Cholesky()
	if err != nil {
		return nil, err
	}
	n := m.Rows
	u := &UpperTri{N: n, Data: make([]float64, n*(n+1)/2)}
	for j := 0; j < n; j++ {
		off := u.RowOff(j)
		for i := j; i < n; i++ {
			u.Data[off+i-j] = l.At(i, j) // U[j][i] = L[i][j]
		}
	}
	return u, nil
}

// SymLambdaMinFloor returns a certified lower bound on the smallest
// eigenvalue of a symmetric positive-definite matrix, within a few
// percent of the true λ_min. The certificate is the positive-definite
// test itself: m - μI admitting a Cholesky factorization proves
// λ_min(m) > μ, so the bound is grown by bisection from the Gershgorin
// floor toward the min-diagonal ceiling using only O(p³/3) triangular
// factorization attempts per step — an order of magnitude cheaper than
// the Jacobi eigensolve it replaces on the metric-rebuild path. The
// returned value is shrunk by a one-ulp-scale safety factor so rounding
// inside the factorization can never certify past the true λ_min.
// Precondition: m positive definite (e.g. CholeskyUpper succeeded); for
// other input the Gershgorin floor (clamped at 0) is returned.
func SymLambdaMinFloor(m *Matrix) float64 {
	if !m.IsSquare() {
		panic("linalg: SymLambdaMinFloor of non-square matrix")
	}
	n := m.Rows
	if n == 0 {
		return 0
	}
	// Gershgorin: λ_min ≥ min_i (a_ii - Σ_{j≠i} |a_ij|); and for
	// symmetric m, λ_min ≤ min_i a_ii.
	lo, hi := math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		var off float64
		for j, v := range row {
			if j != i {
				off += math.Abs(v)
			}
		}
		if g := row[i] - off; g < lo {
			lo = g
		}
		if row[i] < hi {
			hi = row[i]
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo * (1 - 1e-9)
	}
	l := NewMatrix(n, n) // factor scratch, reused across attempts
	for iter := 0; iter < 24 && hi-lo > 1e-3*hi; iter++ {
		mid := lo + 0.5*(hi-lo)
		if mid <= lo || mid >= hi {
			break
		}
		if shiftedCholeskyOK(m, 1, mid, l) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo * (1 - 1e-9)
}

// SymLambdaMaxCeil returns a certified upper bound on the largest
// eigenvalue of a symmetric matrix, within a few percent of the true
// λ_max: the mirror of SymLambdaMinFloor. sI - m admitting a Cholesky
// factorization proves λ_max(m) < s, so the ceiling is lowered by
// bisection from the Gershgorin ceiling toward the max-diagonal floor,
// and the returned value is grown by a one-ulp-scale safety factor. A
// matrix with a non-finite entry yields +Inf.
func SymLambdaMaxCeil(m *Matrix) float64 {
	if !m.IsSquare() {
		panic("linalg: SymLambdaMaxCeil of non-square matrix")
	}
	n := m.Rows
	if n == 0 {
		return 0
	}
	// Gershgorin: λ_max ≤ max_i (a_ii + Σ_{j≠i} |a_ij|); and for
	// symmetric m, λ_max ≥ max_i a_ii.
	lo, hi := math.Inf(-1), math.Inf(-1)
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		var off float64
		for j, v := range row {
			if j != i {
				off += math.Abs(v)
			}
		}
		g := row[i] + off
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return math.Inf(1)
		}
		hi = max(hi, g)
		lo = max(lo, row[i])
	}
	if hi <= lo {
		return ceilSlack(hi)
	}
	l := NewMatrix(n, n)
	for iter := 0; iter < 24 && hi-lo > 1e-3*math.Abs(hi); iter++ {
		mid := lo + 0.5*(hi-lo)
		if mid <= lo || mid >= hi {
			break
		}
		if shiftedCholeskyOK(m, -1, -mid, l) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return ceilSlack(hi)
}

// ceilSlack grows a certified ceiling by the same one-ulp-scale factor
// SymLambdaMinFloor shrinks its floor by, whatever its sign.
func ceilSlack(x float64) float64 {
	if x < 0 {
		return x * (1 - 1e-9)
	}
	return x * (1 + 1e-9)
}

// shiftedCholeskyOK reports whether sign*m - shift*I (sign ±1) is
// positive definite by attempting a Cholesky factorization into the
// scratch l (no allocation, and no copy of m: the sign and shift are
// applied to each entry as it is read). Only l's lower triangle is
// written, and every entry read was written earlier in the same attempt,
// so l needs no clearing.
func shiftedCholeskyOK(m *Matrix, sign, shift float64, l *Matrix) bool {
	n := m.Rows
	for i := 0; i < n; i++ {
		li := l.Data[i*n : (i+1)*n]
		for j := 0; j <= i; j++ {
			sum := sign * m.Data[i*n+j]
			if i == j {
				sum -= shift
			}
			lj := l.Data[j*n : (j+1)*n]
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 {
					return false
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return true
}
