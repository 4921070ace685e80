package main

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rf"
)

// engineFactories builds fresh engines per query session.
var engineFactories = map[string]func() rf.Engine{
	"qcluster-diag": func() rf.Engine { return rf.NewQcluster(core.Options{Scheme: cluster.Diagonal}) },
	"qcluster-inv":  func() rf.Engine { return rf.NewQcluster(core.Options{Scheme: cluster.FullInverse}) },
	"qpm":           func() rf.Engine { return rf.NewQPM() },
	"qex":           func() rf.Engine { return rf.NewQEX(5) },
	"falcon":        func() rf.Engine { return rf.NewFalcon(-5) },
}
