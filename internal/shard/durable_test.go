package shard

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qcluster "repro"
	"repro/internal/index"
)

// TestDurableShardedWarmRestart: a durable set must recover every
// acknowledged cross-shard batch bit-identically after Close + Open.
func TestDurableShardedWarmRestart(t *testing.T) {
	dir := t.TempDir()
	seed := roundRobin(rand.New(rand.NewSource(31)), 1200, 6, 16, 10, 0.5)
	extra := roundRobin(rand.New(rand.NewSource(32)), 400, 6, 16, 10, 0.5)

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
	seed := roundRobin(rand.New(rand.NewSource(41)), 1500, 5, 16, 10, 0.5)
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
	// [1500, tornEnd) that lands on shard `victim` directly into that
	// shard's durable directory — exactly the on-disk state a crash
	// between per-shard commits leaves. The range crosses stripe
	// boundaries until it comes back to the victim, so the victim holds
	// ids past ones its peers never committed.
	const tornEnd = 1500 + shards*index.BlockRows
	victim := placement(1500, shards)
	var sub [][]float64
	for g := 1500; g < tornEnd; g++ {
		if placement(g, shards) == victim {
			sub = append(sub, roundRobin(rand.New(rand.NewSource(int64(g))), 1, 5, 16, 10, 0.5)[0])
		}
	}
	// Recovery keeps the longest globally consistent prefix: the leading
	// run of torn ids that land on the victim are consistent (every id's
	// vector is on its shard) and stay, like unacked-but-durable WAL
	// records in the unsharded database; the rest trims.
	leading := 0
	for g := 1500; g < tornEnd && placement(g, shards) == victim; g++ {
		leading++
	}
	if leading == 0 || leading == len(sub) {
		t.Fatalf("tear keeps %d of the victim's %d torn vectors; want some kept and some trimmed", leading, len(sub))
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
	if trimmed := h[victim].Durability.TrimmedVectors; trimmed == 0 || trimmed != len(sub)-leading {
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
	ids, err := reopened.AddBatchContext(context.Background(), roundRobin(rand.New(rand.NewSource(99)), 10, 5, 16, 10, 0.5))
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
	seed := roundRobin(rand.New(rand.NewSource(55)), 2000, 6, 16, 10, 0.5)
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

// TestOpenRefusesForeignLayout: a durable set boots only under the
// placement rule and shard count its root records. Booting a 3-shard
// root as 2 shards, or a root an earlier build placed by hashed id,
// would map global ids to the wrong vectors, so Open names the reason
// and touches nothing.
func TestOpenRefusesForeignLayout(t *testing.T) {
	seed := roundRobin(rand.New(rand.NewSource(61)), 1500, 5, 16, 10, 0.5)
	refuse := func(label, dir string, shards int, reason string) {
		t.Helper()
		set, err := Open(dir, shards, qcluster.DurableOptions{})
		if err == nil {
			set.Close()
			t.Fatalf("%s: Open booted a set of %d vectors", label, set.Len())
		}
		if !strings.Contains(err.Error(), reason) {
			t.Fatalf("%s: error %q does not name %q", label, err, reason)
		}
	}

	// A different shard count.
	dir := t.TempDir()
	set, err := Open(dir, 3, qcluster.DurableOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	refuse("2 shards over 3", dir, 2, "built with 3 shards, not 2")
	reopened, err := Open(dir, 3, qcluster.DurableOptions{})
	if err != nil {
		t.Fatalf("the refused Open damaged the set: %v", err)
	}
	if reopened.Len() != len(seed) {
		t.Fatalf("reopened set has %d vectors, want %d", reopened.Len(), len(seed))
	}
	got, err := reopened.SearchByExampleContext(context.Background(), seed[7], 1)
	if err != nil || got[0].ID != 7 || got[0].Dist != 0 {
		t.Fatalf("seed[7] answers %v (%v), want id 7 at distance 0", got, err)
	}
	reopened.Close()

	// An unknown placement rule.
	if err := os.WriteFile(filepath.Join(dir, layoutFile), []byte("placement splitmix64\nshards 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refuse("unknown rule", dir, 3, `unknown placement rule "splitmix64"`)

	// Shard directories and no record: what an earlier build that hashed
	// ids to shards leaves behind.
	dir = t.TempDir()
	for i := 0; i < 3; i++ {
		db, err := qcluster.OpenDatabase(shardDir(dir, i), qcluster.DurableOptions{Seed: seed[i*500 : (i+1)*500]})
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	refuse("no record", dir, 3, "shard directories but no "+layoutFile)
}
