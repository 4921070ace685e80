// Package synth generates the synthetic datasets of the paper's Section 5:
// the uniform cube of Example 3 (Fig. 5), the 3-cluster Gaussian data in
// ℝ¹⁶ with varying inter-cluster distance and spherical/elliptical shape
// (Figs. 14-17), and the size-30 cluster pairs with same/different means
// behind Tables 2-3 and the Q-Q plots of Figs. 18-19. worlds.go holds
// the seeded worlds tests and benchmarks draw from, which also build
// qserve's synthetic collection.
package synth

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// Shape selects the synthetic data geometry: z ~ N(0, I) (sphere) or
// y = A z with COV(y) = AA' (ellipsoid), per Section 5.
type Shape int

const (
	// Spherical draws from N(center, I).
	Spherical Shape = iota
	// Elliptical applies a fixed anisotropic linear transform A to
	// spherical data (including the cluster centers), so elliptical data
	// is exactly a linear image of spherical data — the setting in which
	// Theorem 1 predicts identical algorithm quality.
	Elliptical
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	if s == Spherical {
		return "spherical"
	}
	return "elliptical"
}

// UniformCube draws n points uniformly from the axis-aligned cube
// [lo, hi]^dim — Example 3 uses 10,000 points in (-2, 2)³.
func UniformCube(rng *rand.Rand, n, dim int, lo, hi float64) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out
}

// LabeledPoint is a synthetic point with its generating cluster's label.
type LabeledPoint struct {
	Vec   linalg.Vector
	Label int
}

// ClusterSpec describes a Gaussian mixture for the classification
// experiments.
type ClusterSpec struct {
	Dim              int // ambient dimension (paper: 16)
	NumClusters      int // paper: 3
	PointsPerCluster int
	InterDist        float64 // pairwise distance between cluster centers (paper: 0.5-2.5)
	Shape            Shape
}

// RandomOrthonormal draws k mutually orthonormal directions in ℝ^dim by
// Gram-Schmidt over Gaussian vectors. It panics for k > dim.
func RandomOrthonormal(rng *rand.Rand, dim, k int) []linalg.Vector {
	if k > dim {
		panic("synth: need k <= dim orthonormal directions")
	}
	out := make([]linalg.Vector, 0, k)
	for len(out) < k {
		v := make(linalg.Vector, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, q := range out {
			v.AddScaled(-v.Dot(q), q)
		}
		n := v.Norm()
		if n < 1e-8 {
			continue // rare near-dependence: redraw
		}
		out = append(out, v.Scale(1/n))
	}
	return out
}

// spectrumVariances is the eigen-spectrum of the elliptical population
// covariance, shaped to reproduce the paper's variation-ratio column
// (Tables 2-3): the first three components carry ≈94% of the variance and
// the remaining mass is spread thinly, so PCA to 12/9/6/3 covers
// ≈0.99/0.97/0.95/0.94 of the total variation.
func spectrumVariances(dim int) linalg.Vector {
	v := make(linalg.Vector, dim)
	head := []float64{8, 4, 2.5}
	for i := range v {
		if i < len(head) && i < dim {
			v[i] = head[i]
		} else {
			v[i] = 0.07
		}
	}
	return v
}

// ellipticalTransform returns the fixed anisotropic transform
// A = Q diag(√λ) with Q a random rotation, so COV(Az) = Q diag(λ) Q' has
// exactly the spectrum above with arbitrary (non-axis-aligned)
// orientation — the general ellipsoid case the paper's elliptical
// experiments exercise.
func ellipticalTransform(rng *rand.Rand, dim int) *linalg.Matrix {
	lambdas := spectrumVariances(dim)
	q := RandomOrthonormal(rng, dim, dim)
	a := linalg.NewMatrix(dim, dim)
	for col, qc := range q {
		s := math.Sqrt(lambdas[col])
		for row := 0; row < dim; row++ {
			a.Set(row, col, s*qc[row])
		}
	}
	return a
}

// equidistantCenters returns k centers with all pairwise distances equal
// to d, along RANDOM orthonormal directions: c_i = (d/√2) q_i. Random
// directions matter — they give the cluster separation components in
// every principal direction, so PCA truncation genuinely discards
// separation information (the effect Figs. 14-17 measure).
func equidistantCenters(rng *rand.Rand, k, dim int, d float64) []linalg.Vector {
	qs := RandomOrthonormal(rng, dim, k)
	out := make([]linalg.Vector, k)
	for i, q := range qs {
		out[i] = q.Scale(d / math.Sqrt2)
	}
	return out
}

// GaussianClusters draws the mixture described by spec. For Elliptical
// shape the entire spherical dataset (centers included) is mapped through
// one fixed transform A, so the elliptical dataset is a linear image of a
// spherical one with the same labels.
func GaussianClusters(rng *rand.Rand, spec ClusterSpec) []LabeledPoint {
	centers := equidistantCenters(rng, spec.NumClusters, spec.Dim, spec.InterDist)
	pts := make([]LabeledPoint, 0, spec.NumClusters*spec.PointsPerCluster)
	for label, c := range centers {
		for i := 0; i < spec.PointsPerCluster; i++ {
			v := make(linalg.Vector, spec.Dim)
			for d := range v {
				v[d] = c[d] + rng.NormFloat64()
			}
			pts = append(pts, LabeledPoint{Vec: v, Label: label})
		}
	}
	if spec.Shape == Elliptical {
		a := ellipticalTransform(rng, spec.Dim)
		for i := range pts {
			pts[i].Vec = a.MulVec(pts[i].Vec)
		}
	}
	return pts
}

// PairSpec describes the two-cluster samples behind Tables 2-3 and
// Figs. 18-19.
type PairSpec struct {
	Dim      int     // paper: 16, then PCA to 12/9/6/3
	N        int     // points per cluster (paper: 30)
	SameMean bool    // H0 true (Table 2) vs false (Table 3)
	MeanDist float64 // center separation when SameMean is false
	Shape    Shape
}

// ClusterPair draws one pair of clusters per spec. Both clusters share
// the population covariance (the T² assumption); when SameMean is false
// the second center is MeanDist away along a random direction.
func ClusterPair(rng *rand.Rand, spec PairSpec) (a, b []linalg.Vector) {
	offset := linalg.NewVector(spec.Dim)
	if !spec.SameMean {
		dir := make(linalg.Vector, spec.Dim)
		for i := range dir {
			dir[i] = rng.NormFloat64()
		}
		n := dir.Norm()
		if n == 0 {
			dir[0], n = 1, 1
		}
		offset = dir.Scale(spec.MeanDist / n)
	}
	draw := func(center linalg.Vector) []linalg.Vector {
		out := make([]linalg.Vector, spec.N)
		for i := range out {
			v := make(linalg.Vector, spec.Dim)
			for d := range v {
				v[d] = center[d] + rng.NormFloat64()
			}
			out[i] = v
		}
		return out
	}
	a = draw(linalg.NewVector(spec.Dim))
	b = draw(offset)
	if spec.Shape == Elliptical {
		t := ellipticalTransform(rng, spec.Dim)
		for i := range a {
			a[i] = t.MulVec(a[i])
		}
		for i := range b {
			b[i] = t.MulVec(b[i])
		}
	}
	return a, b
}

// CountWithin returns how many points lie within radius (Euclidean) of
// any of the given centers — the acceptance rule of Example 3, where
// points within 1.0 of either cube corner are "relevant".
func CountWithin(points []linalg.Vector, centers []linalg.Vector, radius float64) int {
	r2 := radius * radius
	count := 0
	for _, p := range points {
		for _, c := range centers {
			if p.SqDist(c) <= r2 {
				count++
				break
			}
		}
	}
	return count
}
