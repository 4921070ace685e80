package rf

import (
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// QPM is the query-point-movement baseline (MARS [15], after Rocchio's
// formula): each feedback round the single query point moves toward the
// weighted centroid of the CURRENT round's relevant images,
//
//	q' = α q + (1-α) x̄_relevant,
//
// and each dimension is re-weighted inversely to the variance of the
// current relevant feature values along it (the MARS re-weighting rule).
// Like the original system, it carries the past only through the moved
// point — no per-round accumulation of evidence — which is exactly the
// limitation the multipoint methods attack. As in the paper's
// experiments, only positive feedback moves the point.
type QPM struct {
	// Alpha is the Rocchio carry-over weight of the previous query point
	// (0.5 by default, balancing history and fresh feedback).
	Alpha float64

	query   linalg.Vector
	invDiag linalg.Vector // current per-dimension weights (nil = Euclidean)
	rounds  int
}

// NewQPM builds the engine with the default Rocchio carry-over.
func NewQPM() *QPM { return &QPM{Alpha: 0.5} }

// Name implements Engine.
func (e *QPM) Name() string { return "QPM" }

// Init implements Engine.
func (e *QPM) Init(q linalg.Vector) {
	e.query = q.Clone()
	e.invDiag = nil
	e.rounds = 0
}

// Feedback implements Engine: move the query point and recompute the
// dimension weights from this round's relevant set.
func (e *QPM) Feedback(points []cluster.Point) {
	var valid []cluster.Point
	for _, p := range points {
		if p.Score > 0 {
			valid = append(valid, p)
		}
	}
	if len(valid) == 0 {
		return
	}
	c := cluster.FromPoints(valid)
	if e.rounds == 0 {
		// First feedback: jump to the relevant centroid (there is no
		// meaningful prior yet beyond the example image itself).
		e.query = c.Mean.Clone()
	} else {
		moved := e.query.Scale(e.Alpha)
		moved.AddScaled(1-e.Alpha, c.Mean)
		e.query = moved
	}
	e.invDiag = c.InverseDiag()
	e.rounds++
}

// Metric implements Engine: weighted Euclidean distance from the moved
// query point.
func (e *QPM) Metric() distance.Metric {
	if e.invDiag == nil {
		return initialMetric(e.query)
	}
	return distance.NewQuadraticDiag(e.query, e.invDiag)
}

// NumQueryPoints implements Engine.
func (e *QPM) NumQueryPoints() int { return 1 }
