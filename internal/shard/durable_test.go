package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	qcluster "repro"
	"repro/internal/synth"
)

// TestDurableShardedWarmRestart: a durable set must recover every
// acknowledged cross-shard batch bit-identically after Close + Open.
func TestDurableShardedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	seed := synth.RoundRobin[[]float64](rand.New(rand.NewSource(31)), 1200, 6, 16, 10, 0.5)
	extra := synth.RoundRobin[[]float64](rand.New(rand.NewSource(32)), 400, 6, 16, 10, 0.5)

	set, err := Open(dir, 3, qcluster.DurableOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !set.Durable() {
		t.Fatal("Open produced a non-durable set")
	}
	if _, err := set.AddBatchContext(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	want, err := set.SearchByExampleContext(context.Background(), extra[7], 25)
	if err != nil {
		t.Fatal(err)
	}
	health := set.Health()
	if len(health) != 3 || health[0].Durability == nil {
		t.Fatalf("durable health malformed: %+v", health)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, 3, qcluster.DurableOptions{}) // no seed: must boot from disk
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1600 {
		t.Fatalf("reopened set has %d vectors, want 1600", reopened.Len())
	}
	got, err := reopened.SearchByExampleContext(context.Background(), extra[7], 25)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "warm restart", want, got)
}

// TestDurableShardedTornBatchTrim simulates the cross-shard crash
// window: one shard committed its sub-batch of a global batch, the
// others did not (the batch was never acknowledged). Boot must roll the
// over-committed shard back to the longest globally consistent prefix
// and recover searches identical to the pre-torn state.
func TestDurableShardedTornBatchTrim(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	seed := synth.RoundRobin[[]float64](rand.New(rand.NewSource(41)), 1500, 5, 16, 10, 0.5)
	set, err := Open(dir, shards, qcluster.DurableOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.SearchByExampleContext(context.Background(), seed[3], 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear a batch by hand: commit the sub-batch of global ids
	// 1500..1519 that lands on shard `victim` directly into that shard's
	// durable directory — exactly the on-disk state a crash between
	// per-shard commits leaves.
	victim := placement(1500, shards)
	var sub [][]float64
	for g := 1500; g < 1520; g++ {
		if placement(g, shards) == victim {
			sub = append(sub, synth.RoundRobin[[]float64](rand.New(rand.NewSource(int64(g))), 1, 5, 16, 10, 0.5)[0])
		}
	}
	// Recovery keeps the longest globally consistent prefix: the leading
	// run of torn ids that happen to land on the victim are consistent
	// (every id's vector is on its shard) and stay, like unacked-but-
	// durable WAL records in the unsharded database; the rest trims.
	leading := 0
	for g := 1500; placement(g, shards) == victim; g++ {
		leading++
	}
	sdb, err := qcluster.OpenDatabase(shardDir(dir, victim), qcluster.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	preTear := sdb.Len()
	if _, err := sdb.AddBatch(sub); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, shards, qcluster.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	wantLen := 1500 + leading
	if reopened.Len() != wantLen {
		t.Fatalf("reopened set has %d vectors, want the %d consistent ones", reopened.Len(), wantLen)
	}
	// The victim shard must have been rolled back to its share of the
	// consistent prefix...
	h := reopened.Health()
	if h[victim].Items != preTear+leading {
		t.Fatalf("victim shard holds %d items after trim, want %d", h[victim].Items, preTear+leading)
	}
	if h[victim].Durability.TrimmedVectors != len(sub)-leading {
		t.Fatalf("victim trimmed %d vectors, want %d", h[victim].Durability.TrimmedVectors, len(sub)-leading)
	}
	// ...and searches must match an unsharded control holding exactly
	// the recovered prefix (seed plus the surviving torn vectors).
	control, err := qcluster.NewDatabase(append(append([][]float64{}, seed...), sub[:leading]...))
	if err != nil {
		t.Fatal(err)
	}
	want, err = control.SearchByExampleContext(context.Background(), seed[3], 30)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.SearchByExampleContext(context.Background(), seed[3], 30)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "torn-batch trim", want, got)

	// The set keeps ingesting after the rollback: the next global batch
	// starts right after the recovered prefix.
	ids, err := reopened.AddBatchContext(context.Background(), synth.RoundRobin[[]float64](rand.New(rand.NewSource(99)), 10, 5, 16, 10, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != wantLen {
		t.Fatalf("post-trim batch starts at %d, want %d", ids[0], wantLen)
	}
}

// TestDurableShardedSessionsSurviveRestart drives a feedback session,
// restarts the set, and checks refined retrieval still matches an
// unsharded control over the recovered collection.
func TestDurableShardedSessionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	seed := synth.RoundRobin[[]float64](rand.New(rand.NewSource(55)), 2000, 6, 16, 10, 0.5)
	set, err := Open(dir, 2, qcluster.DurableOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	set.Close()
	reopened, err := Open(dir, 2, qcluster.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	control, err := qcluster.NewDatabase(seed)
	if err != nil {
		t.Fatal(err)
	}
	cs := control.NewSession(seed[10], qcluster.Options{})
	ss := reopened.NewSession(seed[10], qcluster.Options{})
	for round := 0; round < 3; round++ {
		want, werr := cs.ResultsContext(context.Background(), 15)
		got, gerr := ss.ResultsContext(context.Background(), 15)
		if werr != nil || gerr != nil {
			t.Fatalf("round %d: %v / %v", round, werr, gerr)
		}
		sameResults(t, fmt.Sprintf("restarted session round %d", round), want, got)
		var marked []qcluster.Point
		for i, r := range want {
			if i%2 == 0 {
				marked = append(marked, qcluster.Point{ID: r.ID, Vec: control.Vector(r.ID), Score: 3})
			}
		}
		if err := cs.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
		if err := ss.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
	}
}
