package rf

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// Qcluster adapts the core query model (the paper's method) to the
// Engine interface.
type Qcluster struct {
	opt   core.Options
	model *core.QueryModel
	query linalg.Vector
}

// NewQcluster builds the engine with the given core options.
func NewQcluster(opt core.Options) *Qcluster {
	return &Qcluster{opt: opt}
}

// Name implements Engine.
func (e *Qcluster) Name() string { return "Qcluster" }

// Init implements Engine.
func (e *Qcluster) Init(q linalg.Vector) {
	e.query = q.Clone()
	e.model = core.New(e.opt)
}

// Feedback implements Engine.
func (e *Qcluster) Feedback(points []cluster.Point) {
	e.model.Feedback(points)
}

// Metric implements Engine: the aggregate disjunctive distance (Eq. 5)
// once clusters exist, the shared Euclidean start before that.
func (e *Qcluster) Metric() distance.Metric {
	if e.model == nil || e.model.NumClusters() == 0 {
		return initialMetric(e.query)
	}
	return e.model.Metric()
}

// Describe implements Engine.
func (e *Qcluster) Describe() core.Description { return e.model.Describe() }

// Model exposes the underlying query model (for quality diagnostics).
func (e *Qcluster) Model() *core.QueryModel { return e.model }
