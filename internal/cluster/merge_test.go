package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestMergeCollapsesSameMean(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Three overlapping clusters drawn from one population must merge.
	cs := []*Cluster{
		gaussCluster(rng, 20, 3, linalg.Vector{0, 0, 0}, 1),
		gaussCluster(rng, 20, 3, linalg.Vector{0, 0, 0}, 1),
		gaussCluster(rng, 20, 3, linalg.Vector{0, 0, 0}, 1),
	}
	out, rec := Merge(cs, MergeOptions{Scheme: FullInverse, Alpha: 0.05})
	if len(out) != 1 {
		t.Errorf("same-population clusters: got %d clusters, want 1", len(out))
	}
	// Two accepted merges, after scanning 3 pairs and then 1.
	if len(rec.Steps) != 2 || rec.Steps[0].Forced || rec.Steps[1].Forced || rec.PairsTested != 4 {
		t.Errorf("record %+v, want 2 accepted merges over 4 pairs", rec)
	}
	for _, st := range rec.Steps {
		if !(st.T2 <= st.C2) {
			t.Errorf("accepted merge with T² %v > c² %v", st.T2, st.C2)
		}
	}
}

func TestMergeKeepsDistantClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cs := []*Cluster{
		gaussCluster(rng, 20, 3, linalg.Vector{0, 0, 0}, 0.5),
		gaussCluster(rng, 20, 3, linalg.Vector{10, 10, 10}, 0.5),
	}
	out, _ := Merge(cs, MergeOptions{Scheme: FullInverse, Alpha: 0.05})
	if len(out) != 2 {
		t.Errorf("distant clusters: got %d clusters, want 2", len(out))
	}
}

func TestMergeRespectsMaxClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Four well-separated clusters but a bound of 2: the α-relaxation
	// loop must force down to 2.
	cs := []*Cluster{
		gaussCluster(rng, 15, 2, linalg.Vector{0, 0}, 0.3),
		gaussCluster(rng, 15, 2, linalg.Vector{8, 0}, 0.3),
		gaussCluster(rng, 15, 2, linalg.Vector{0, 8}, 0.3),
		gaussCluster(rng, 15, 2, linalg.Vector{8, 8}, 0.3),
	}
	out, rec := Merge(cs, MergeOptions{Scheme: FullInverse, Alpha: 0.05, MaxClusters: 2})
	if len(out) > 2 {
		t.Errorf("got %d clusters, want <= 2", len(out))
	}
	if len(rec.Steps) != len(cs)-len(out) || !rec.Steps[len(rec.Steps)-1].Forced {
		t.Errorf("record %+v for %d → %d clusters, want one step per merge, the last forced", rec, len(cs), len(out))
	}
}

func TestMergePreservesTotalWeightAndPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cs := []*Cluster{
		gaussCluster(rng, 10, 2, linalg.Vector{0, 0}, 1),
		gaussCluster(rng, 12, 2, linalg.Vector{1, 0}, 1),
		gaussCluster(rng, 8, 2, linalg.Vector{20, 20}, 1),
	}
	wantW := TotalWeight(cs)
	wantN := 0
	for _, c := range cs {
		wantN += c.N()
	}
	out, _ := Merge(cs, MergeOptions{Scheme: Diagonal, Alpha: 0.05})
	if got := TotalWeight(out); !almostEq(got, wantW, 1e-9) {
		t.Errorf("total weight changed: %v -> %v", wantW, got)
	}
	gotN := 0
	for _, c := range out {
		gotN += c.N()
	}
	if gotN != wantN {
		t.Errorf("point count changed: %d -> %d", wantN, gotN)
	}
}

func TestMergeDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cs := []*Cluster{
		gaussCluster(rng, 10, 2, linalg.Vector{0, 0}, 1),
		gaussCluster(rng, 10, 2, linalg.Vector{0.2, 0}, 1),
	}
	before0 := cs[0].Mean.Clone()
	Merge(cs, MergeOptions{Scheme: Diagonal, Alpha: 0.05})
	if !cs[0].Mean.Equal(before0, 0) {
		t.Error("Merge mutated input cluster")
	}
}

func TestMergeSingletonsSmallSampleFallback(t *testing.T) {
	// Two singleton points far apart must remain separate under the
	// small-sample fallback; two coincident ones must merge.
	far := []*Cluster{
		FromPoint(Point{Vec: linalg.Vector{0, 0}, Score: 1}),
		FromPoint(Point{Vec: linalg.Vector{100, 100}, Score: 1}),
	}
	if out, _ := Merge(far, MergeOptions{Scheme: Diagonal, Alpha: 0.05}); len(out) != 2 {
		t.Errorf("far singletons merged: %d clusters", len(out))
	}
	near := []*Cluster{
		FromPoint(Point{Vec: linalg.Vector{0, 0}, Score: 1}),
		FromPoint(Point{Vec: linalg.Vector{0, 0}, Score: 1}),
	}
	if out, _ := Merge(near, MergeOptions{Scheme: Diagonal, Alpha: 0.05}); len(out) != 1 {
		t.Errorf("coincident singletons stayed apart: %d clusters", len(out))
	}
}

func TestMergeEmptyAndSingle(t *testing.T) {
	if out, _ := Merge(nil, MergeOptions{}); len(out) != 0 {
		t.Error("nil input must give empty output")
	}
	one := []*Cluster{FromPoint(Point{Vec: linalg.Vector{1}, Score: 1})}
	if out, _ := Merge(one, MergeOptions{}); len(out) != 1 {
		t.Error("single cluster must pass through")
	}
}
