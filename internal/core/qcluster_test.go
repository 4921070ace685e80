package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/synth"
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
	d := m.Describe()
	if len(d.Clusters) != 2 {
		t.Fatalf("reps = %d", len(d.Clusters))
	}
	reps := []linalg.Vector{d.Clusters[0].Centroid, d.Clusters[1].Centroid}
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

// TestDescribeMatchesTrace: over generated sessions (dims 3 and 16, both
// schemes, a first round of singletons or of a dendrogram, then rounds
// that absorb fresh marks beside re-marked ones) each round's
// Description.Round holds the decisions its feedback.round span traced,
// in count and order; member ids partition the absorbed ids; and each
// centroid and weight is its cluster's, bit for bit.
func TestDescribeMatchesTrace(t *testing.T) {
	bits := math.Float64bits
	kinds := map[string]int{}
	for _, dim := range []int{3, 16} {
		for _, scheme := range []cluster.Scheme{cluster.Diagonal, cluster.FullInverse} {
			for _, first := range []int{3, 12} {
				name := fmt.Sprintf("dim%d/%v/first%d", dim, scheme, first)
				rng := rand.New(rand.NewSource(int64(dim + first)))
				vecs, labels := synth.Mixture[linalg.Vector](rng, 3, 40, dim, 4)
				order := rng.Perm(len(vecs))
				sink := &obs.MemorySink{}
				m := New(Options{Scheme: scheme})
				m.SetSink(sink)
				absorbed := map[int]bool{}
				var earlier []int // ids absorbed by earlier rounds
				for round := 1; round <= 4; round++ {
					n := first
					if round > 1 {
						n = 10
					}
					var marks []cluster.Point
					for _, id := range order[:n] {
						marks = append(marks, cluster.Point{ID: id, Vec: vecs[id], Score: []float64{1, 3}[labels[id]%2]})
						absorbed[id] = true
					}
					for _, id := range earlier[:min(3, len(earlier))] { // re-marks, which the round skips
						marks = append(marks, cluster.Point{ID: id, Vec: vecs[id], Score: 3})
					}
					earlier = append(earlier, order[:n]...)
					order = order[n:]
					traced := len(sink.Events())
					m.Feedback(marks)

					d := m.Describe()
					if d.Rounds != round {
						t.Fatalf("%s round %d: Rounds %d", name, round, d.Rounds)
					}
					var steps []obs.Event
					for _, e := range sink.Events()[traced:] {
						if e.Span == "feedback.round" && e.Name != "start" && e.Name != "end" {
							steps = append(steps, e)
						}
					}
					if err := sameAsTrace(d.Round, steps, round, n); err != nil {
						t.Fatalf("%s round %d: %v\n%s", name, round, err, sink)
					}
					for _, e := range steps {
						kinds[e.Name]++
					}

					seen := map[int]bool{}
					for ci, c := range d.Clusters {
						mc := m.Clusters()[ci]
						for _, id := range c.IDs {
							if seen[id] || !absorbed[id] {
								t.Fatalf("%s round %d: id %d repeated or never absorbed", name, round, id)
							}
							seen[id] = true
						}
						if bits(c.Weight) != bits(mc.Weight) || len(c.Centroid) != len(mc.Mean) {
							t.Fatalf("%s round %d cluster %d: weight %v, dim %d; the cluster has %v, %d",
								name, round, ci, c.Weight, len(c.Centroid), mc.Weight, len(mc.Mean))
						}
						for i := range mc.Mean {
							if bits(c.Centroid[i]) != bits(mc.Mean[i]) {
								t.Fatalf("%s round %d cluster %d: centroid[%d] %v, mean %v", name, round, ci, i, c.Centroid[i], mc.Mean[i])
							}
						}
					}
					if len(seen) != len(absorbed) {
						t.Fatalf("%s round %d: clusters hold %d ids, %d absorbed", name, round, len(seen), len(absorbed))
					}
				}
			}
		}
	}
	for _, k := range []string{"initial.cluster", "classify.assign", "classify.new_cluster", "merge.accept", "merge.done"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event in any round: %v", k, kinds)
		}
	}
}

// sameAsTrace checks a round record against the events its span traced
// between start and end. A first round groups its points; a later one
// decides each of its fresh points.
func sameAsTrace(r Round, steps []obs.Event, round, fresh int) error {
	bits := math.Float64bits
	if (round == 1) != (r.Initial != "") || (round > 1 && len(r.Decisions) != fresh) {
		return fmt.Errorf("round record %q with %d decisions for %d fresh points", r.Initial, len(r.Decisions), fresh)
	}
	want := len(r.Decisions) + len(r.Merge.Steps) + 1
	if r.Initial != "" {
		want++
	}
	if len(steps) != want {
		return fmt.Errorf("%d events traced, the record has %d", len(steps), want)
	}
	if r.Initial != "" {
		if e := steps[0]; e.Name != "initial.cluster" || e.Field("path") != r.Initial {
			return fmt.Errorf("traced %s %v, record says %q", e.Name, e.Fields, r.Initial)
		}
		steps = steps[1:]
	}
	for i, d := range r.Decisions {
		e := steps[i]
		ok := e.Field("point_id") == d.PointID
		if d.New {
			ok = ok && e.Name == "classify.new_cluster" && e.Field("nearest") == d.Winner &&
				bits(e.Field("mahalanobis").(float64)) == bits(d.Mahalanobis) &&
				bits(e.Field("radius").(float64)) == bits(d.Radius)
		} else {
			ok = ok && e.Name == "classify.assign" && e.Field("cluster") == d.Winner &&
				bits(e.Field("score").(float64)) == bits(d.Score)
		}
		if !ok {
			return fmt.Errorf("decision %d: traced %s %v, record %+v", i, e.Name, e.Fields, d)
		}
	}
	steps = steps[len(r.Decisions):]
	for i, st := range r.Merge.Steps {
		e := steps[i]
		name := "merge.accept"
		if st.Forced {
			name = "merge.forced"
		}
		if e.Name != name || bits(e.Field("t2").(float64)) != bits(st.T2) || bits(e.Field("c2").(float64)) != bits(st.C2) {
			return fmt.Errorf("merge %d: traced %s %v, record %+v", i, e.Name, e.Fields, st)
		}
	}
	if e := steps[len(r.Merge.Steps)]; e.Name != "merge.done" || e.Field("pairs_tested") != r.Merge.PairsTested {
		return fmt.Errorf("traced %s %v, record tested %d pairs", e.Name, e.Fields, r.Merge.PairsTested)
	}
	return nil
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
