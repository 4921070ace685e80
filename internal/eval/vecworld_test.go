package eval

import (
	"testing"

	"repro/internal/rf"
)

func TestBuildVectorWorldLayout(t *testing.T) {
	cfg := VectorWorldConfig{Seed: 1, NumCategories: 10, PerCategory: 30}
	w := BuildVectorWorld(cfg)
	if len(w.Themes) != 11 || len(w.Complex) != 11 {
		t.Fatalf("%d themes, %d complex flags: want 10 categories + clutter", len(w.Themes), len(w.Complex))
	}
	counts := map[int]int{}
	for _, l := range w.Labels {
		counts[l]++
	}
	for cat := 0; cat < 10; cat++ {
		if counts[cat] != 30 {
			t.Errorf("category %d has %d points", cat, counts[cat])
		}
	}
	// Complex categories (first half) contribute clutter under the
	// shared clutter label.
	if counts[10] != 5*cfg.withDefaults().ClutterPerCategory {
		t.Errorf("clutter count = %d", counts[10])
	}
	if len(w.Vectors) != len(w.Labels) {
		t.Error("vectors/labels length mismatch")
	}
	// Complexity flag: first half complex, clutter never.
	if !w.Complex[0] || !w.Complex[4] || w.Complex[5] || w.Complex[10] {
		t.Errorf("complex flags = %v", w.Complex)
	}
	// Queries come from complex categories only.
	if len(w.Pool) != 5*30 {
		t.Errorf("query pool has %d ids", len(w.Pool))
	}
	for _, id := range w.Pool {
		if !w.Complex[w.Labels[id]] {
			t.Fatalf("pool id %d is in simple category %d", id, w.Labels[id])
		}
	}
}

func TestBuildVectorWorldDeterministic(t *testing.T) {
	cfg := VectorWorldConfig{Seed: 2, NumCategories: 6, PerCategory: 10}
	a := BuildVectorWorld(cfg)
	b := BuildVectorWorld(cfg)
	for i := range a.Vectors {
		if !a.Vectors[i].Equal(b.Vectors[i], 0) {
			t.Fatal("world not deterministic")
		}
	}
}

func TestVectorWorldComplexQueryAdvantage(t *testing.T) {
	// On the controlled disjoint-mode geometry, Qcluster must beat the
	// single-contour baselines on complex queries — the paper's headline
	// phenomenon in its cleanest form.
	w := BuildVectorWorld(VectorWorldConfig{Seed: 3, NumCategories: 16, PerCategory: 60})
	cfg := Config{NumQueries: 16, Iterations: 4, K: 100, Seed: 5}
	sweeps := Run(cfg, w, qcluster, func() rf.Engine { return rf.NewQPM() })
	qc, qpm := sweeps[0].Series(), sweeps[1].Series()
	last := len(qc.Recall) - 1
	if qc.Recall[last] <= qpm.Recall[last] {
		t.Errorf("Qcluster %.3f <= QPM %.3f on complex queries",
			qc.Recall[last], qpm.Recall[last])
	}
	// Multipoint actually engaged.
	if qc.QueryPoints[last] < 1.5 {
		t.Errorf("mean query points = %.2f, want > 1.5", qc.QueryPoints[last])
	}
}
