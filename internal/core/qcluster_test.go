package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

func blob(rng *rand.Rand, n int, cx, cy float64, idBase int) []cluster.Point {
	ps := make([]cluster.Point, n)
	for i := range ps {
		ps[i] = cluster.Point{
			ID:    idBase + i,
			Vec:   linalg.Vector{cx + 0.3*rng.NormFloat64(), cy + 0.3*rng.NormFloat64()},
			Score: 1,
		}
	}
	return ps
}

func TestInitialFeedbackFormsDisjointClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	m := New(Options{})
	pts := append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...)
	m.Feedback(pts)
	if g := m.NumClusters(); g != 2 {
		t.Errorf("NumClusters = %d, want 2 (bimodal relevant set)", g)
	}
	if cluster.TotalWeight(m.clusters) != 20 {
		t.Errorf("TotalWeight = %v", cluster.TotalWeight(m.clusters))
	}
}

func TestInitialFeedbackSingleMode(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	m := New(Options{})
	m.Feedback(blob(rng, 12, 0, 0, 0))
	if g := m.NumClusters(); g != 1 {
		t.Errorf("NumClusters = %d, want 1 (unimodal relevant set)", g)
	}
}

func TestFeedbackSkipsSeenIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	m := New(Options{})
	pts := blob(rng, 10, 0, 0, 0)
	m.Feedback(pts)
	w := cluster.TotalWeight(m.clusters)
	m.Feedback(pts) // same IDs again: no-op
	if cluster.TotalWeight(m.clusters) != w {
		t.Errorf("re-feeding seen points changed weight %v -> %v", w, cluster.TotalWeight(m.clusters))
	}
}

func TestFeedbackIgnoresNonPositiveScores(t *testing.T) {
	m := New(Options{})
	m.Feedback([]cluster.Point{{ID: 1, Vec: linalg.Vector{0, 0}, Score: 0}})
	if m.NumClusters() != 0 {
		t.Error("zero-score point must be ignored")
	}
}

func TestSecondRoundClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	m := New(Options{})
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))

	// Round 2: points near cluster 1 plus a far outlier.
	round2 := blob(rng, 5, 0.2, -0.1, 200)
	round2 = append(round2, cluster.Point{ID: 300, Vec: linalg.Vector{-30, 30}, Score: 1})
	m.Feedback(round2)

	// Expect: the 5 near points joined existing clusters; the outlier
	// seeded a third cluster.
	if g := m.NumClusters(); g != 3 {
		t.Errorf("NumClusters = %d, want 3", g)
	}
	if cluster.TotalWeight(m.clusters) != 26 {
		t.Errorf("TotalWeight = %v, want 26", cluster.TotalWeight(m.clusters))
	}
}

func TestMaxClustersBound(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	m := New(Options{MaxClusters: 2})
	pts := blob(rng, 8, 0, 0, 0)
	pts = append(pts, blob(rng, 8, 10, 0, 100)...)
	pts = append(pts, blob(rng, 8, 0, 10, 200)...)
	pts = append(pts, blob(rng, 8, 10, 10, 300)...)
	m.Feedback(pts)
	if g := m.NumClusters(); g > 2 {
		t.Errorf("NumClusters = %d, want <= 2", g)
	}
}

func TestMetricFavorsBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	m := New(Options{})
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))
	metric := m.Metric()

	nearA := metric.Eval(linalg.Vector{0.1, 0})
	nearB := metric.Eval(linalg.Vector{10, 10.1})
	mid := metric.Eval(linalg.Vector{5, 5})
	if nearA >= mid || nearB >= mid {
		t.Errorf("disjunctive metric: nearA %v nearB %v mid %v", nearA, nearB, mid)
	}
}

func TestMetricPanicsBeforeFeedback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Options{}).Metric()
}

func TestErrorRate(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	m := New(Options{})
	if m.ErrorRate() != 0 {
		t.Error("empty model must report zero error rate")
	}
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))
	if e := m.ErrorRate(); e > 0.2 {
		t.Errorf("error rate %v for well-separated modes", e)
	}
}

func TestOptionsDefaults(t *testing.T) {
	m := New(Options{})
	o := m.Options()
	if o.Alpha != 0.05 || o.MaxClusters != 5 {
		t.Errorf("defaults = %+v", o)
	}
	// Negative MaxClusters means unbounded.
	if New(Options{MaxClusters: -1}).Options().MaxClusters != 0 {
		t.Error("negative MaxClusters must map to 0 (unbounded)")
	}
}

func TestRepresentatives(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	m := New(Options{})
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))
	reps := m.Representatives()
	if len(reps) != 2 {
		t.Fatalf("reps = %d", len(reps))
	}
	// One representative near each mode.
	nearOrigin := reps[0].Norm() < 1 || reps[1].Norm() < 1
	nearFar := reps[0].Dist(linalg.Vector{10, 10}) < 1 || reps[1].Dist(linalg.Vector{10, 10}) < 1
	if !nearOrigin || !nearFar {
		t.Errorf("representatives misplaced: %v", reps)
	}
}

func TestFullInverseSchemeWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	m := New(Options{Scheme: cluster.FullInverse})
	m.Feedback(append(blob(rng, 12, 0, 0, 0), blob(rng, 12, 8, -8, 100)...))
	if m.NumClusters() != 2 {
		t.Errorf("NumClusters = %d", m.NumClusters())
	}
	metric := m.Metric()
	if metric.Eval(linalg.Vector{0, 0}) >= metric.Eval(linalg.Vector{4, -4}) {
		t.Error("full-inverse metric ordering wrong")
	}
}

func TestSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New(Options{})
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))
	snap := m.Snapshot()
	if len(snap) != m.NumClusters() {
		t.Fatalf("snapshot %d entries for %d clusters", len(snap), m.NumClusters())
	}
	var totalPts int
	var totalW float64
	for _, info := range snap {
		totalPts += info.Points
		totalW += info.Weight
		if info.RMSRadius < 0 || info.RMSRadius > 2 {
			t.Errorf("rms radius = %v", info.RMSRadius)
		}
		if info.Centroid.Dim() != 2 {
			t.Errorf("centroid dim = %d", info.Centroid.Dim())
		}
	}
	if totalPts != 20 || totalW != cluster.TotalWeight(m.clusters) {
		t.Errorf("totals: %d points, weight %v vs %v", totalPts, totalW, cluster.TotalWeight(m.clusters))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	m := New(Options{Alpha: 0.01, MaxClusters: 3})
	m.Feedback(append(blob(rng, 10, 0, 0, 0), blob(rng, 10, 10, 10, 100)...))

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumClusters() != m.NumClusters() {
		t.Fatalf("clusters %d != %d", back.NumClusters(), m.NumClusters())
	}
	if cluster.TotalWeight(back.clusters) != cluster.TotalWeight(m.clusters) {
		t.Errorf("weight %v != %v", cluster.TotalWeight(back.clusters), cluster.TotalWeight(m.clusters))
	}
	if back.Options() != m.Options() {
		t.Errorf("options differ: %+v vs %+v", back.Options(), m.Options())
	}
	// Same metric behaviour.
	probe := linalg.Vector{5, 5}
	if a, b := m.Metric().Eval(probe), back.Metric().Eval(probe); math.Abs(a-b) > 1e-9 {
		t.Errorf("metric differs after round trip: %v vs %v", a, b)
	}
	// Seen-id set preserved: re-feeding old points is a no-op.
	w := cluster.TotalWeight(back.clusters)
	back.Feedback(blob(rng, 0, 0, 0, 0)) // empty
	back.Feedback([]cluster.Point{{ID: 3, Vec: linalg.Vector{0, 0}, Score: 3}})
	if cluster.TotalWeight(back.clusters) != w {
		t.Error("seen ids were not restored")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("expected decode error")
	}
}
