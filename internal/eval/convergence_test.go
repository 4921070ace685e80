package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rf"
)

func TestRunConvergence(t *testing.T) {
	cfg := Config{NumQueries: 8, Iterations: 4, K: 20, Seed: 3}
	res := Run(cfg, testWorld(t), qcluster)[0].Convergence()
	if len(res.RecallGain) != 5 {
		t.Fatalf("series length = %d", len(res.RecallGain))
	}
	// First-iteration gain dominates the tail (fast convergence).
	tail := res.RecallGain[3] + res.RecallGain[4]
	if res.RecallGain[1] <= 0 {
		t.Errorf("first-iteration gain = %v, want > 0", res.RecallGain[1])
	}
	if tail > res.RecallGain[1] {
		t.Errorf("tail gain %v exceeds first-iteration gain %v", tail, res.RecallGain[1])
	}
	// Churn decreases from the first to the last refinement.
	if res.ResultChurn[len(res.ResultChurn)-1] > res.ResultChurn[1] {
		t.Errorf("churn grew: %v -> %v", res.ResultChurn[1],
			res.ResultChurn[len(res.ResultChurn)-1])
	}
	for i := 1; i < 5; i++ {
		if res.ResultChurn[i] < 0 || res.ResultChurn[i] > 1 {
			t.Fatalf("churn[%d] = %v out of range", i, res.ResultChurn[i])
		}
		if res.ModelDrift[i] < 0 {
			t.Fatalf("drift[%d] = %v negative", i, res.ModelDrift[i])
		}
	}
}

func TestChurnAndDriftHelpers(t *testing.T) {
	prev := []int{1, 2}
	if got := churn(prev, []int{1, 3}); got != 0.5 {
		t.Errorf("churn = %v", got)
	}
	if got := churn(prev, nil); got != 0 {
		t.Errorf("churn(empty) = %v", got)
	}
	if got := repDrift(core.Description{}, core.Description{}); got != 0 {
		t.Errorf("repDrift(no prev) = %v", got)
	}
}

func TestRunAblationsShape(t *testing.T) {
	w := BuildVectorWorld(VectorWorldConfig{Seed: 1, NumCategories: 8, PerCategory: 30})
	cfg := Config{NumQueries: 4, Iterations: 2, K: 40, Seed: 2}
	engines := make([]func() rf.Engine, len(Ablations))
	for i, a := range Ablations {
		engines[i] = a.Engine
	}
	out := Run(cfg, w, engines...)
	if len(out) != 2 {
		t.Fatalf("ablation cases = %d", len(out))
	}
	names := map[string]bool{}
	for i, s := range out {
		names[Ablations[i].Name] = true
		if n := len(s.Series().Recall); n != 3 {
			t.Fatalf("%s: series length %d", Ablations[i].Name, n)
		}
	}
	for _, want := range []string{"full", "raw-covariances"} {
		if !names[want] {
			t.Errorf("missing ablation %q", want)
		}
	}
}
