package eval

import (
	"repro/internal/core"
	"repro/internal/rf"
)

// Ablation is one case of the ablation study: Qcluster with the listed
// corrections switched off.
type Ablation struct {
	Name string
	Off  core.Ablations
}

// Ablations are the full configuration and the one with the model's only
// correction to the paper — pooled-shrunk covariances in Eq. 5 — removed.
// The finite-sample radius and the ellipsoid-overlap merge rule were
// deleted: removing them lost nowhere in EXPERIMENTS.md's 2³ grid.
var Ablations = []Ablation{
	{"full", core.Ablations{}},
	{"raw-covariances", core.Ablations{RawCovariances: true}},
}

// Engine builds a fresh Qcluster engine for the case.
func (a Ablation) Engine() rf.Engine {
	return rf.NewQcluster(core.Options{Ablations: a.Off})
}
