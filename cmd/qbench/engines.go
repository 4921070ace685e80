package main

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rf"
)

// rfEngine aliases the engine interface for the experiment registry.
type rfEngine = rf.Engine

// engineFactories builds fresh engines per query session.
var engineFactories = map[string]func() rfEngine{
	"qcluster-diag": func() rfEngine { return rf.NewQcluster(core.Options{Scheme: cluster.Diagonal}) },
	"qcluster-inv":  func() rfEngine { return rf.NewQcluster(core.Options{Scheme: cluster.FullInverse}) },
	"qpm":           func() rfEngine { return rf.NewQPM() },
	"qex":           func() rfEngine { return rf.NewQEX(5) },
	"falcon":        func() rfEngine { return rf.NewFalcon(-5) },
}
