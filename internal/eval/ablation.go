package eval

import (
	"repro/internal/core"
	"repro/internal/rf"
)

// Ablation is one case of the ablation study: Qcluster with the listed
// small-sample corrections switched off.
type Ablation struct {
	Name string
	Off  core.Ablations
}

// Ablations are the full configuration, each correction removed in turn
// and all three removed. The corrections are the small-sample measures
// DESIGN.md documents: pooled-shrunk covariances in Eq. 5, the
// finite-sample effective radius, and the ellipsoid-overlap merge
// criterion.
var Ablations = []Ablation{
	{"full", core.Ablations{}},
	{"raw-covariances", core.Ablations{RawCovariances: true}},
	{"plain-chi2-radius", core.Ablations{PlainChiSquareRadius: true}},
	{"no-overlap-merge", core.Ablations{NoOverlapMerge: true}},
	{"all-off", core.Ablations{
		RawCovariances: true, PlainChiSquareRadius: true, NoOverlapMerge: true,
	}},
}

// Engine builds a fresh Qcluster engine for the case.
func (a Ablation) Engine() rf.Engine {
	return rf.NewQcluster(core.Options{Ablations: a.Off})
}
