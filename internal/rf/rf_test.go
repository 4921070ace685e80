package rf

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// testWorld is a synthetic retrieval universe: categories are Gaussian
// blobs in ℝ³; category 0 is bimodal (two far-apart modes, like the
// paper's birds-on-green vs birds-on-blue example).
type testWorld struct {
	store  *index.Store
	labels []int
	themes []int
	oracle *Oracle
}

func buildWorld(seed int64, perCat int) *testWorld {
	vecs, labels := synth.Blobs[linalg.Vector](rand.New(rand.NewSource(seed)),
		// Category 0: bimodal — mode A near the origin, mode B near
		// (4,4,4). The modes are close enough that the initial k-NN from an
		// A-mode query surfaces a few B-mode images (as in the paper's bird
		// example, Fig. 3), yet far enough apart that a single moved query
		// point cannot cover both without sweeping in the midpoint clutter.
		synth.Blob{Label: 0, N: perCat / 2, Center: []float64{0, 0, 0}, Spread: 0.4},
		synth.Blob{Label: 0, N: perCat - perCat/2, Center: []float64{4, 4, 4}, Spread: 0.4},
		// Category 1: unimodal, far away (theme-related to category 0 for the
		// oracle tests but spatially irrelevant to category-0 queries).
		synth.Blob{Label: 1, N: perCat, Center: []float64{8, -8, 0}, Spread: 0.4},
		// Category 2: unimodal near (-8, 8, 3).
		synth.Blob{Label: 2, N: perCat, Center: []float64{-8, 8, 3}, Spread: 0.4},
		// Category 3: clutter concentrated between the two category-0 modes —
		// exactly where query-point movement's single contour must pass.
		synth.Blob{Label: 3, N: 20, Center: []float64{2, 2, 2}, Spread: 1.2},
	)
	store, err := index.NewStore(vecs)
	if err != nil {
		panic(err)
	}
	themes := []int{0, 0, 1, 2} // categories 0 and 1 are related
	return &testWorld{
		store:  store,
		labels: labels,
		themes: themes,
		oracle: NewOracle(labels, themes),
	}
}

func (w *testWorld) session(e Engine, k int) *Session {
	return &Session{
		Engine:   e,
		Searcher: index.NewLinearScan(w.store),
		Oracle:   w.oracle,
		Vec:      w.store.Vector,
		K:        k,
	}
}

// recallAt computes the fraction of the query category retrieved.
func (w *testWorld) recallAt(results []index.Result, cat int) float64 {
	hits := 0
	for _, r := range results {
		if w.labels[r.ID] == cat {
			hits++
		}
	}
	return float64(hits) / float64(w.oracle.CategorySize(cat))
}

func allEngines() []Engine {
	return []Engine{
		NewQcluster(core.Options{}),
		NewQPM(),
		NewQEX(5),
		NewFalcon(-5),
	}
}

func TestOracleScores(t *testing.T) {
	w := buildWorld(1, 20)
	// Image 0 is category 0; query category 0 → most relevant (3).
	if s := w.oracle.Score(0, 0); s != 3 {
		t.Errorf("same-category score = %v", s)
	}
	// Category 1 shares theme 0 with category 0 → related (1).
	firstCat1 := 20 // perCat images of category 0 come first
	if s := w.oracle.Score(0, firstCat1); s != 1 {
		t.Errorf("related-category score = %v", s)
	}
	// Category 2 is unrelated → 0.
	firstCat2 := 40
	if s := w.oracle.Score(0, firstCat2); s != 0 {
		t.Errorf("unrelated score = %v", s)
	}
	if !w.oracle.Relevant(0, 0) || w.oracle.Relevant(0, firstCat1) {
		t.Error("Relevant must be same-category only")
	}
	if w.oracle.CategorySize(0) != 20 {
		t.Errorf("CategorySize = %d", w.oracle.CategorySize(0))
	}
}

func TestOracleMark(t *testing.T) {
	w := buildWorld(2, 20)
	pts := w.oracle.Mark(0, []int{0, 20, 40}, w.store.Vector)
	if len(pts) != 2 { // category-0 image (3) + related category-1 image (1)
		t.Fatalf("marked %d points", len(pts))
	}
	if pts[0].Score != 3 || pts[1].Score != 1 {
		t.Errorf("scores %v %v", pts[0].Score, pts[1].Score)
	}
}

func TestSessionShape(t *testing.T) {
	w := buildWorld(3, 20)
	for _, e := range allEngines() {
		s := w.session(e, 30)
		iters := s.Run(0, 0, 3)
		if len(iters) != 4 {
			t.Fatalf("%s: %d iterations", e.Name(), len(iters))
		}
		for i, it := range iters {
			if len(it.Results) != 30 {
				t.Fatalf("%s iter %d: %d results", e.Name(), i, len(it.Results))
			}
			if it.QueryPoints < 1 {
				t.Fatalf("%s iter %d: %d query points", e.Name(), i, it.QueryPoints)
			}
			if it.Stats.DistanceEvals == 0 {
				t.Fatalf("%s iter %d: no distance evals recorded", e.Name(), i)
			}
		}
	}
}

func TestAllEnginesShareInitialResults(t *testing.T) {
	w := buildWorld(4, 20)
	var first []index.Result
	for _, e := range allEngines() {
		iters := w.session(e, 25).Run(5, 0, 0)
		if first == nil {
			first = iters[0].Results
			continue
		}
		for i := range first {
			if first[i].ID != iters[0].Results[i].ID {
				t.Fatalf("%s: initial results differ at rank %d", e.Name(), i)
			}
		}
	}
}

func TestFeedbackImprovesRecallUnimodal(t *testing.T) {
	w := buildWorld(5, 20)
	for _, e := range allEngines() {
		s := w.session(e, 40)
		// Query from unimodal category 1 (first image index 20).
		iters := s.Run(20, 1, 3)
		r0 := w.recallAt(iters[0].Results, 1)
		rN := w.recallAt(iters[len(iters)-1].Results, 1)
		if rN < r0 {
			t.Errorf("%s: recall degraded %v -> %v", e.Name(), r0, rN)
		}
	}
}

func TestQclusterBeatsQPMOnBimodal(t *testing.T) {
	w := buildWorld(6, 30)
	k := 40
	// Query from the first mode of bimodal category 0.
	qc := w.session(NewQcluster(core.Options{}), k).Run(0, 0, 3)
	qpm := w.session(NewQPM(), k).Run(0, 0, 3)

	qcRecall := w.recallAt(qc[3].Results, 0)
	qpmRecall := w.recallAt(qpm[3].Results, 0)
	if qcRecall <= qpmRecall {
		t.Errorf("Qcluster recall %v <= QPM recall %v on bimodal category", qcRecall, qpmRecall)
	}
	// Qcluster should recover most of the category despite bimodality.
	if qcRecall < 0.8 {
		t.Errorf("Qcluster recall = %v, want >= 0.8", qcRecall)
	}
	// And it should actually be using multiple query points by then.
	if qc[3].QueryPoints < 2 {
		t.Errorf("Qcluster used %d query points on a bimodal query", qc[3].QueryPoints)
	}
}

func TestQclusterBeatsQEXOnBimodal(t *testing.T) {
	w := buildWorld(7, 30)
	k := 40
	qc := w.session(NewQcluster(core.Options{}), k).Run(0, 0, 3)
	qex := w.session(NewQEX(5), k).Run(0, 0, 3)
	qcRecall := w.recallAt(qc[3].Results, 0)
	qexRecall := w.recallAt(qex[3].Results, 0)
	if qcRecall < qexRecall {
		t.Errorf("Qcluster recall %v < QEX recall %v on bimodal category", qcRecall, qexRecall)
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range allEngines() {
		names[e.Name()] = true
	}
	for _, want := range []string{"Qcluster", "QPM", "QEX", "FALCON"} {
		if !names[want] {
			t.Errorf("missing engine %q", want)
		}
	}
}

func TestEnginesResetOnInit(t *testing.T) {
	w := buildWorld(8, 20)
	for _, e := range allEngines() {
		s := w.session(e, 20)
		s.Run(0, 0, 2)
		// Re-init with a different query: no leftover query points.
		e.Init(w.store.Vector(20))
		if e.NumQueryPoints() != 1 {
			t.Errorf("%s: %d query points after re-Init", e.Name(), e.NumQueryPoints())
		}
	}
}
