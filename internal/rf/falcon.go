package rf

import (
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// Falcon is the FALCON baseline (Wu et al. [20]): every relevant point
// becomes a query point ("this model assumes that all relevant points
// are query points"), combined by the fuzzy-OR aggregate of Eq. 4 with a
// negative α (FALCON's experiments use α = -5). It handles disjunctive
// queries but carries one distance evaluation per relevant point per
// database object, which is what makes it expensive (paper Fig. 7).
type Falcon struct {
	noModel
	query    linalg.Vector
	relevant []cluster.Point
	seen     map[int]bool
	alpha    float64
}

// NewFalcon builds the engine; alpha <= 0 means the FALCON default of -5.
func NewFalcon(alpha float64) *Falcon {
	if alpha >= 0 {
		alpha = -5
	}
	return &Falcon{alpha: alpha}
}

// Name implements Engine.
func (e *Falcon) Name() string { return "FALCON" }

// Init implements Engine.
func (e *Falcon) Init(q linalg.Vector) {
	e.query = q.Clone()
	e.relevant = nil
	e.seen = map[int]bool{}
}

// Feedback implements Engine.
func (e *Falcon) Feedback(points []cluster.Point) {
	for _, p := range points {
		if p.Score <= 0 || (p.ID >= 0 && e.seen[p.ID]) {
			continue
		}
		if p.ID >= 0 {
			e.seen[p.ID] = true
		}
		e.relevant = append(e.relevant, p)
	}
}

// Metric implements Engine: the α-mean aggregate over Euclidean
// distances to every relevant point.
func (e *Falcon) Metric() distance.Metric {
	if len(e.relevant) == 0 {
		return initialMetric(e.query)
	}
	parts := make([]distance.Metric, len(e.relevant))
	for i, p := range e.relevant {
		parts[i] = &distance.Euclidean{Center: p.Vec.Clone()}
	}
	return distance.NewAggregate(parts, e.alpha)
}
