package eval

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// VectorWorldConfig sizes the world.
type VectorWorldConfig struct {
	Seed          int64
	NumCategories int // real categories (default 40)
	PerCategory   int // points per category (default 60)
	Dim           int // feature dimensionality (default 3)
	// ComplexFrac of categories have 2-3 modes (default 0.5).
	ComplexFrac float64
	// ClutterPerCategory clutter points are dropped at each complex
	// category's centroid (default PerCategory/2).
	ClutterPerCategory int
}

func (c VectorWorldConfig) withDefaults() VectorWorldConfig {
	if c.NumCategories <= 0 {
		c.NumCategories = 40
	}
	if c.PerCategory <= 0 {
		c.PerCategory = 60
	}
	if c.Dim <= 0 {
		c.Dim = 3
	}
	if c.ComplexFrac <= 0 {
		c.ComplexFrac = 0.5
	}
	if c.ClutterPerCategory <= 0 {
		c.ClutterPerCategory = c.PerCategory
	}
	return c
}

// BuildVectorWorld builds a controlled retrieval universe used alongside
// the image collection: categories are sets of tight Gaussian modes in
// feature space with clutter placed INSIDE each complex category's convex
// hull — the geometry of the paper's Example 1 / Figure 4, where the
// relevant images of one query form clearly disjoint clusters and a
// single convex contour over them must sweep through foreign images. The
// image collection exercises the full pipeline; this world isolates the
// disjunctive-query mechanism itself at a configurable scale.
//
// The categories are laid out on a coarse grid so category neighborhoods
// never overlap; each complex category is 2-3 tight modes on a ring with
// shared clutter at the ring center. Clutter points carry the one extra
// category NumCategories, which is never a query. Queries are drawn from
// the complex categories only — the paper's "complex image query" case —
// and each category is its own theme.
func BuildVectorWorld(cfg VectorWorldConfig) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := &World{}
	const (
		gridStep   = 6.0  // distance between category anchors
		modeRadius = 0.65 // ring radius for complex categories
		modeSigma  = 0.18 // within-mode spread
		clutterSig = 0.25 // clutter spread at the ring center
	)
	numComplex := int(float64(cfg.NumCategories) * cfg.ComplexFrac)

	side := int(math.Ceil(math.Pow(float64(cfg.NumCategories), 1/float64(cfg.Dim))))
	anchor := func(cat int) linalg.Vector {
		v := make(linalg.Vector, cfg.Dim)
		rem := cat
		for d := 0; d < cfg.Dim; d++ {
			v[d] = float64(rem%side) * gridStep
			rem /= side
		}
		return v
	}
	gauss := func(center linalg.Vector, sigma float64) linalg.Vector {
		v := make(linalg.Vector, cfg.Dim)
		for d := range v {
			v[d] = center[d] + sigma*rng.NormFloat64()
		}
		return v
	}

	for cat := 0; cat < cfg.NumCategories; cat++ {
		c := anchor(cat)
		modes := 1
		if cat < numComplex {
			// Three modes: a single ellipsoidal contour over them is a
			// 2-D pancake that necessarily contains the ring center —
			// with two modes, axis re-weighting can form a thin tube
			// that threads between the clutter.
			modes = 3
		}
		// Mode centers on a ring: random orthogonal-ish directions.
		centers := make([]linalg.Vector, modes)
		for m := range centers {
			dir := make(linalg.Vector, cfg.Dim)
			for d := range dir {
				dir[d] = rng.NormFloat64()
			}
			dir = dir.Scale(modeRadius / dir.Norm())
			centers[m] = c.Add(dir)
		}
		for i := 0; i < cfg.PerCategory; i++ {
			m := i % modes
			w.Vectors = append(w.Vectors, gauss(centers[m], modeSigma))
			w.Labels = append(w.Labels, cat)
		}
		if modes > 1 {
			// Clutter inside the hull of the modes.
			for i := 0; i < cfg.ClutterPerCategory; i++ {
				w.Vectors = append(w.Vectors, gauss(c, clutterSig))
				w.Labels = append(w.Labels, cfg.NumCategories)
			}
		}
	}
	w.Themes = make([]int, cfg.NumCategories+1)
	w.Complex = make([]bool, cfg.NumCategories+1)
	for i := range w.Themes {
		w.Themes[i] = i
		w.Complex[i] = i < min(numComplex, cfg.NumCategories)
	}
	for id, l := range w.Labels {
		if w.Complex[l] {
			w.Pool = append(w.Pool, id)
		}
	}
	return w
}
