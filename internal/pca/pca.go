// Package pca implements the dimension-reduction machinery of the paper's
// Section 4.4: sample principal components, the variance ratio behind
// component selection (the 1-ε rule) and projection onto the leading
// components.
package pca

import (
	"fmt"

	"repro/internal/linalg"
)

// PCA holds a fitted principal-component transform.
type PCA struct {
	Mean        linalg.Vector  // sample mean x̄
	Components  *linalg.Matrix // G: columns are eigenvectors of S, descending λ
	Eigenvalues linalg.Vector  // λ_1 >= ... >= λ_p >= 0
	dim         int
}

// Fit computes the sample principal components of the data rows
// (Sec. 4.4.2): the eigendecomposition S = G L G' of the sample
// covariance of X.
func Fit(rows []linalg.Vector) (*PCA, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("pca: no data")
	}
	p := rows[0].Dim()
	mean := linalg.NewVector(p)
	for _, r := range rows {
		if r.Dim() != p {
			return nil, fmt.Errorf("pca: ragged data")
		}
		mean.AddScaled(1, r)
	}
	mean = mean.Scale(1 / float64(len(rows)))

	cov := linalg.NewMatrix(p, p)
	for _, r := range rows {
		d := r.Sub(mean)
		cov.AddScaledInPlace(1, d.Outer(d))
	}
	den := float64(len(rows) - 1)
	if den < 1 {
		den = 1
	}
	cov = cov.Scale(1 / den)

	vals, vecs := linalg.EigenSym(cov)
	// Clamp tiny negative eigenvalues from roundoff.
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return &PCA{Mean: mean, Components: vecs, Eigenvalues: vals, dim: p}, nil
}

// Restore rebuilds a PCA from previously fitted parameters (for snapshot
// deserialization).
func Restore(mean linalg.Vector, components *linalg.Matrix, eigenvalues linalg.Vector) *PCA {
	return &PCA{Mean: mean, Components: components, Eigenvalues: eigenvalues, dim: mean.Dim()}
}

// Dim returns the original data dimensionality p.
func (p *PCA) Dim() int { return p.dim }

// VarianceRatio returns (λ_1 + ... + λ_k) / Σλ, the proportion of total
// variation covered by the first k components.
func (p *PCA) VarianceRatio(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > p.dim {
		k = p.dim
	}
	var top, total float64
	for i, v := range p.Eigenvalues {
		total += v
		if i < k {
			top += v
		}
	}
	if total == 0 {
		return 1
	}
	return top / total
}

// Project maps x to its first k principal components:
// z = G_k' (x - x̄)  (Sec. 4.4.1-4.4.2).
func (p *PCA) Project(x linalg.Vector, k int) linalg.Vector {
	if k <= 0 || k > p.dim {
		panic(fmt.Sprintf("pca: invalid component count %d (dim %d)", k, p.dim))
	}
	d := x.Sub(p.Mean)
	z := make(linalg.Vector, k)
	for j := 0; j < k; j++ {
		var s float64
		for i := 0; i < p.dim; i++ {
			s += p.Components.At(i, j) * d[i]
		}
		z[j] = s
	}
	return z
}

// ProjectAll maps every row to k components.
func (p *PCA) ProjectAll(rows []linalg.Vector, k int) []linalg.Vector {
	out := make([]linalg.Vector, len(rows))
	for i, r := range rows {
		out[i] = p.Project(r, k)
	}
	return out
}
