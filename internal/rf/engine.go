// Package rf is the relevance-feedback framework: a common Engine
// interface over the paper's method (Qcluster) and its experimental
// baselines (MARS query-point movement, MARS query expansion, FALCON),
// the simulated user (Oracle) that scores retrieved images from category
// ground truth, and the Session loop that runs Algorithm 1 end to end.
package rf

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// Engine is one relevance-feedback method. A session drives it through
// Algorithm 1: Init with the example image, then alternately retrieve
// with Metric and absorb scored relevant results via Feedback.
type Engine interface {
	// Name identifies the method in experiment output.
	Name() string
	// Init starts a fresh query session from the example image's feature
	// vector.
	Init(q linalg.Vector)
	// Feedback absorbs the relevance-scored results of the last
	// retrieval (only points the user marked relevant, score > 0).
	Feedback(points []cluster.Point)
	// Metric returns the distance function for the next retrieval.
	Metric() distance.Metric
	// Describe returns the engine's Qcluster query model; the baselines
	// keep none and return the zero Description.
	Describe() core.Description
}

type noModel struct{} // the baselines' Describe

func (noModel) Describe() core.Description { return core.Description{} }

// initialMetric is the iteration-0 distance every engine shares: plain
// Euclidean distance to the example point, so all methods start from the
// identical first result set (the paper: "they produce the same precision
// and the same recall for the initial query").
func initialMetric(q linalg.Vector) distance.Metric {
	return &distance.Euclidean{Center: q.Clone()}
}
