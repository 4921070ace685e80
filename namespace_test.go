package qcluster_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	qcluster "repro"
	"repro/internal/shard"
)

// TestNoPlanSeries pins the shrunken metric namespace: after a search, a
// database and a sharded set (its own block plus every shard's, re-keyed
// "shard<i>.") export no series under a deleted prefix.
func TestNoPlanSeries(t *testing.T) {
	deleted := []string{"plan.", "cost.window.", "index.cache_seed_leaves"}

	rng := rand.New(rand.NewSource(6))
	vectors := make([][]float64, 240)
	for i := range vectors {
		vectors[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	snaps := map[string]qcluster.MetricsSnapshot{}
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SearchByExampleContext(context.Background(), vectors[0], 5); err != nil {
		t.Fatal(err)
	}
	snaps["database"] = db.Metrics()
	set, err := shard.New(vectors, 2, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SearchByExampleContext(context.Background(), vectors[0], 5); err != nil {
		t.Fatal(err)
	}
	snaps["shard.Set"] = set.Metrics()

	for owner, m := range snaps {
		if len(m.Counters) == 0 || len(m.Histograms) == 0 {
			t.Fatalf("%s: empty registry snapshot", owner)
		}
		check := func(name string) {
			for _, prefix := range deleted {
				if strings.HasPrefix(name, prefix) || strings.Contains(name, "."+prefix) {
					t.Errorf("%s registers %q under the deleted prefix %q", owner, name, prefix)
				}
			}
		}
		for name := range m.Counters {
			check(name)
		}
		for name := range m.Gauges {
			check(name)
		}
		for name := range m.Histograms {
			check(name)
		}
	}
}
