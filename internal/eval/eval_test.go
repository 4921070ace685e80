package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imagegen"
	"repro/internal/rf"
	"repro/internal/synth"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Build(dataset.Config{
		Collection: imagegen.CollectionConfig{
			Seed: 7, NumCategories: 8, ImagesPerCategory: 15, ImageSize: 24,
			Themes: 4, BimodalFrac: 0.25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testWorld is the small test collection under the colour feature.
func testWorld(t *testing.T) *World {
	t.Helper()
	return ImageWorld(testDataset(t), dataset.ColorMoments)
}

func qcluster() rf.Engine { return rf.NewQcluster(core.Options{}) }

func TestRunRetrievalShapes(t *testing.T) {
	cfg := Config{NumQueries: 5, Iterations: 2, K: 20, Seed: 1}
	s := Run(cfg, testWorld(t), qcluster)[0].Series()
	if s.Name != "Qcluster" {
		t.Errorf("Name = %q", s.Name)
	}
	if len(s.Recall) != 3 || len(s.Precision) != 3 || len(s.Curves) != 3 {
		t.Fatalf("series lengths: %d %d %d", len(s.Recall), len(s.Precision), len(s.Curves))
	}
	if len(s.Curves[0]) != 20 {
		t.Errorf("curve length = %d", len(s.Curves[0]))
	}
	for i, r := range s.Recall {
		if r < 0 || r > 1 {
			t.Errorf("recall[%d] = %v", i, r)
		}
	}
	// Feedback must not hurt recall on average (small fluctuations are
	// expected with only 5 queries on a 120-image collection).
	if s.Recall[2] < s.Recall[0]-0.05 {
		t.Errorf("recall degraded: %v -> %v", s.Recall[0], s.Recall[2])
	}
}

func TestRunRetrievalRefinementCacheCutsWork(t *testing.T) {
	w := testWorld(t)
	base := Config{NumQueries: 4, Iterations: 3, K: 15, Seed: 5}
	cold := Run(base, w, qcluster)[0].Series()
	warm := base
	warm.UseRefinementCache = true
	cached := Run(warm, w, qcluster)[0].Series()
	// Same quality.
	for i := range cold.Recall {
		if diff := cold.Recall[i] - cached.Recall[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("iteration %d: recall differs with cache", i)
		}
	}
	// Cached refinement iterations expand no more nodes than cold ones.
	var coldNodes, warmNodes float64
	for i := 1; i < len(cold.NodesVisited); i++ {
		coldNodes += cold.NodesVisited[i]
		warmNodes += cached.NodesVisited[i]
	}
	if warmNodes > coldNodes {
		t.Errorf("cache increased node work: %v > %v", warmNodes, coldNodes)
	}
}

// TestFoldsShareOneQueryDraw pins the single query draw: on one Run the
// paired fold's MeanA and the split's query-weighted mean are the
// series' final recall.
func TestFoldsShareOneQueryDraw(t *testing.T) {
	cfg := Config{NumQueries: 12, Iterations: 2, K: 20, Seed: 8}
	sweeps := Run(cfg, testWorld(t), qcluster, func() rf.Engine { return rf.NewQPM() })
	s := sweeps[0].Series()
	final := s.Recall[len(s.Recall)-1]
	if p := Paired(sweeps[0], sweeps[1]); p.MeanA != final {
		t.Errorf("paired MeanA %v != series final recall %v", p.MeanA, final)
	}
	b := sweeps[0].Split()
	if b.SimpleQueries == 0 || b.ComplexQueries == 0 {
		t.Fatalf("split %d + %d: the draw must hit both classes", b.SimpleQueries, b.ComplexQueries)
	}
	weighted := (b.SimpleRecall*float64(b.SimpleQueries) + b.ComplexRecall*float64(b.ComplexQueries)) /
		float64(b.SimpleQueries+b.ComplexQueries)
	if math.Abs(weighted-final) > 1e-12 {
		t.Errorf("split weighted recall %v != series final recall %v", weighted, final)
	}
}

func TestRunClassificationTrends(t *testing.T) {
	cfg := ClassificationConfig{
		Shape: synth.Spherical, Scheme: cluster.FullInverse,
		Dims: []int{12, 3}, InterDists: []float64{0.5, 2.5},
		PointsPerCluster: 20, Trials: 3, Seed: 11,
	}
	res := RunClassification(cfg)
	if len(res.Err) != 2 || len(res.Err[0]) != 2 {
		t.Fatal("grid shape wrong")
	}
	// Error falls as inter-cluster distance rises (dim 12).
	if res.Err[0][1] > res.Err[0][0] {
		t.Errorf("dim12: error rose with separation: %v -> %v", res.Err[0][0], res.Err[0][1])
	}
	// At the NARROW separation the between-cluster signal is weaker than
	// the noise, so projecting to 3 dims discards separation information:
	// err(dim 3) >= err(dim 12) there (the paper's information-loss
	// argument for Figs. 14-17). At wide separations PCA keeps the signal
	// in the top components, so no such ordering is asserted.
	if res.Err[1][0]+0.03 < res.Err[0][0] {
		t.Errorf("dim3 error %v unexpectedly below dim12 error %v at narrow separation",
			res.Err[1][0], res.Err[0][0])
	}
	for di := range res.Err {
		for ii := range res.Err[di] {
			if res.Err[di][ii] < 0 || res.Err[di][ii] > 1 {
				t.Fatalf("error rate out of range: %v", res.Err[di][ii])
			}
		}
	}
}

func TestShapeInvarianceOfClassification(t *testing.T) {
	// Theorem 1's experimental confirmation (Figs. 14 vs 15): with the
	// full-inverse scheme, spherical and elliptical data give similar
	// error rates at the same separation.
	mk := func(shape synth.Shape) ClassificationResult {
		return RunClassification(ClassificationConfig{
			Shape: shape, Scheme: cluster.FullInverse,
			Dims: []int{12}, InterDists: []float64{1.5},
			PointsPerCluster: 25, Trials: 6, Seed: 13,
		})
	}
	sph := mk(synth.Spherical).Err[0][0]
	ell := mk(synth.Elliptical).Err[0][0]
	if diff := sph - ell; diff > 0.12 || diff < -0.12 {
		t.Errorf("shape changed error rate too much: spherical %v vs elliptical %v", sph, ell)
	}
}

func TestRunT2Table2Shape(t *testing.T) {
	rows := RunT2(T2Config{SameMean: true, Scheme: cluster.FullInverse, Pairs: 40, Seed: 17})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Same-mean: low T², low error ratio.
		if r.ErrorRatio > 15 {
			t.Errorf("dim %d: same-mean error ratio %v%%", r.Dim, r.ErrorRatio)
		}
		if r.AvgT2 <= 0 {
			t.Errorf("dim %d: avg T² %v", r.Dim, r.AvgT2)
		}
		if r.VariationRatio <= 0.5 || r.VariationRatio > 1 {
			t.Errorf("dim %d: variation ratio %v", r.Dim, r.VariationRatio)
		}
		if r.QuantileF <= 1 {
			t.Errorf("dim %d: quantile-F %v", r.Dim, r.QuantileF)
		}
	}
	// Variation ratio decreases with dim.
	for i := 1; i < len(rows); i++ {
		if rows[i].VariationRatio > rows[i-1].VariationRatio {
			t.Error("variation ratio must fall as dim falls")
		}
	}
}

func TestRunT2Table3Shape(t *testing.T) {
	rows := RunT2(T2Config{SameMean: false, Scheme: cluster.Diagonal, Pairs: 40, Seed: 19})
	for _, r := range rows {
		// Different means: big T², mostly correct separations.
		if r.ErrorRatio > 25 {
			t.Errorf("dim %d: diff-mean error ratio %v%%", r.Dim, r.ErrorRatio)
		}
	}
	// T² for different means must dwarf the same-mean values.
	same := RunT2(T2Config{SameMean: true, Scheme: cluster.Diagonal, Pairs: 40, Seed: 19})
	if rows[0].AvgT2 < 3*same[0].AvgT2 {
		t.Errorf("diff-mean T² %v not ≫ same-mean %v", rows[0].AvgT2, same[0].AvgT2)
	}
}

func TestRunQQ(t *testing.T) {
	pts, threshold := RunQQ(cluster.FullInverse, 40, 12, 23)
	if len(pts) != 40 {
		t.Fatalf("len = %d", len(pts))
	}
	if threshold <= 1 || threshold > 5 {
		t.Fatalf("threshold = %v", threshold)
	}
	// Sorted ascending in both coordinates.
	for i := 1; i < len(pts); i++ {
		if pts[i].T2 < pts[i-1].T2 || pts[i].C2 < pts[i-1].C2 {
			t.Fatal("Q-Q data must be sorted")
		}
	}
	// The decision rule at the threshold must separate the populations:
	// nearly all same-mean pairs below, nearly all different-mean above.
	sameOK, diffOK, same, diff := 0, 0, 0, 0
	for _, p := range pts {
		if p.SameMean {
			same++
			if p.T2 <= threshold {
				sameOK++
			}
		} else {
			diff++
			if p.T2 > threshold {
				diffOK++
			}
		}
	}
	if sameOK < same*8/10 || diffOK < diff*8/10 {
		t.Errorf("weak separation: same %d/%d, diff %d/%d", sameOK, same, diffOK, diff)
	}
}

func TestRunExample3(t *testing.T) {
	res := RunExample3(42)
	if res.TotalPoints != 10000 {
		t.Fatalf("TotalPoints = %d", res.TotalPoints)
	}
	// Statistical expectation ≈ 1309 (see synth tests); the paper's 820
	// differs because of its generator, but the qualitative check is the
	// disjunctive coverage: both corners retrieved in near-equal shares.
	if res.WithinRadius < 1000 || res.WithinRadius > 1650 {
		t.Errorf("WithinRadius = %d", res.WithinRadius)
	}
	if len(res.Retrieved) != res.WithinRadius {
		t.Error("retrieved count mismatch")
	}
	lo, hi := res.PerCenter[0], res.PerCenter[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo)/float64(hi) < 0.7 {
		t.Errorf("corner coverage unbalanced: %v vs %v", res.PerCenter[0], res.PerCenter[1])
	}
}

func TestRenderers(t *testing.T) {
	// Smoke tests: renderers must include headers and data.
	ser := []EngineSeries{{Name: "A", Recall: []float64{0.1, 0.2}}}
	out := RenderSeriesTable("t", "recall", ser, func(s EngineSeries) []float64 { return s.Recall })
	if !strings.Contains(out, "A") || !strings.Contains(out, "0.2") {
		t.Errorf("series table:\n%s", out)
	}
	cr := ClassificationResult{
		Config: ClassificationConfig{Dims: []int{3}, InterDists: []float64{1}}.withDefaults(),
	}
	cr.Config.Dims = []int{3}
	cr.Config.InterDists = []float64{1}
	cr.Err = [][]float64{{0.25}}
	if out := RenderClassification("t", cr); !strings.Contains(out, "0.25") {
		t.Errorf("classification table:\n%s", out)
	}
	rows := []T2Row{{Dim: 12, VariationRatio: 0.99, AvgT2: 1.5, QuantileF: 1.96, ErrorRatio: 2}}
	if out := RenderT2Table("t", rows); !strings.Contains(out, "1.96") {
		t.Errorf("t2 table:\n%s", out)
	}
	qq := []QQPoint{{T2: 1, C2: 2}, {T2: 5, C2: 3}}
	out = RenderQQ("t", qq, 1)
	if !strings.Contains(out, "merge") || !strings.Contains(out, "separate") {
		t.Errorf("qq table:\n%s", out)
	}
	e3 := Example3Result{TotalPoints: 10, WithinRadius: 2, Retrieved: []int{1, 2}}
	if out := RenderExample3(e3); !strings.Contains(out, "820") {
		t.Errorf("example3:\n%s", out)
	}
	curves := [][]PRPoint{{{Scope: 1, Precision: 1, Recall: 0.5}}}
	if out := RenderPRCurves("t", curves, []int{1}); !strings.Contains(out, "0.5") {
		t.Errorf("pr curves:\n%s", out)
	}
}
