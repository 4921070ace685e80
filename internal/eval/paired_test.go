package eval

import (
	"testing"

	"repro/internal/rf"
)

func TestRunPairedSelfComparisonIsNull(t *testing.T) {
	// An engine compared against itself must show zero mean difference
	// and a p-value of 1 (no variance in the differences).
	cfg := Config{NumQueries: 6, Iterations: 2, K: 20, Seed: 4}
	mk := func() rf.Engine { return rf.NewQPM() }
	sweeps := Run(cfg, testWorld(t), mk, mk)
	out := Paired(sweeps[0], sweeps[1])
	if out.MeanDiff != 0 {
		t.Errorf("self-comparison MeanDiff = %v", out.MeanDiff)
	}
	if out.PValue < 0.99 {
		t.Errorf("self-comparison p-value = %v, want 1", out.PValue)
	}
	if out.Queries != 6 {
		t.Errorf("Queries = %d", out.Queries)
	}
	if out.MeanA != out.MeanB {
		t.Errorf("MeanA %v != MeanB %v on self comparison", out.MeanA, out.MeanB)
	}
}

func TestRunPairedDetectsRealDifference(t *testing.T) {
	// Qcluster vs QEX on the complex-query vector world: a genuine
	// difference should come out with a small p-value given enough
	// queries.
	w := BuildVectorWorld(VectorWorldConfig{Seed: 3, NumCategories: 16, PerCategory: 60})
	cfg := Config{NumQueries: 24, Iterations: 3, K: 100, Seed: 5}
	sweeps := Run(cfg, w, qcluster, func() rf.Engine { return rf.NewQEX(5) })
	out := Paired(sweeps[0], sweeps[1])
	if out.NameA != "Qcluster" || out.NameB != "QEX" {
		t.Errorf("names = %q, %q", out.NameA, out.NameB)
	}
	if out.MeanDiff <= 0 {
		t.Errorf("Qcluster - QEX mean diff = %v, want > 0", out.MeanDiff)
	}
	if out.PValue > 0.05 {
		t.Errorf("p-value = %v for a real difference over %d queries", out.PValue, out.Queries)
	}
}

func TestRunModalityImage(t *testing.T) {
	cfg := Config{NumQueries: 8, Iterations: 2, K: 20, Seed: 6}
	b := Run(cfg, testWorld(t), qcluster)[0].Split()
	if b.SimpleQueries+b.ComplexQueries != 8 {
		t.Errorf("query split %d + %d != 8", b.SimpleQueries, b.ComplexQueries)
	}
	if b.SimpleRecall < 0 || b.SimpleRecall > 1 || b.ComplexRecall < 0 || b.ComplexRecall > 1 {
		t.Errorf("recalls out of range: %v %v", b.SimpleRecall, b.ComplexRecall)
	}
	if b.Name != "Qcluster" {
		t.Errorf("Name = %q", b.Name)
	}
}
