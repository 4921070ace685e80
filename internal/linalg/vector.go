// Package linalg provides the dense linear-algebra primitives the Qcluster
// reproduction is built on: vectors, matrices, Gauss-Jordan inversion,
// Cholesky factorization and a Jacobi eigensolver for symmetric matrices.
//
// Everything is implemented on top of plain float64 slices so the higher
// layers (clustering, classification, PCA, distance functions) stay
// allocation-conscious and free of external dependencies.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s*v.
func (v Vector) Scale(s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// AddScaled adds s*w to v in place.
func (v Vector) AddScaled(s float64, w Vector) {
	mustSameDim(v, w)
	for i := range v {
		v[i] += s * w[i]
	}
}

// Dot returns the inner product v·w.
func (v Vector) Dot(w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between v and w.
func (v Vector) SqDist(w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Outer returns the outer product v w' as a Dim(v) x Dim(w) matrix.
func (v Vector) Outer(w Vector) *Matrix {
	m := NewMatrix(len(v), len(w))
	for i := range v {
		row := m.Row(i)
		for j := range w {
			row[j] = v[i] * w[j]
		}
	}
	return m
}

// Equal reports whether v and w agree to within tol in every component.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
