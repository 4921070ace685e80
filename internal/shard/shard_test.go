package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	qcluster "repro"
	"repro/internal/index"
)

func TestPlacementDeterministicAndCovering(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16} {
		counts := make([]int, shards)
		for id := 0; id < 20000; id++ {
			p := placement(id, shards)
			if p != placement(id, shards) {
				t.Fatalf("placement(%d, %d) not deterministic", id, shards)
			}
			if p < 0 || p >= shards {
				t.Fatalf("placement(%d, %d) = %d out of range", id, shards, p)
			}
			// The id map is a bijection that numbers each shard's ids
			// densely in global order.
			if l := local(id, shards); l != counts[p] || global(p, l, shards) != id {
				t.Fatalf("shards=%d: global %d maps to local %d (want %d), which maps back to %d",
					shards, id, l, counts[p], global(p, l, shards))
			}
			counts[p]++
		}
		// Stripes of index.BlockRows ids deal round-robin: every shard
		// gets within 20% of the fair share at this n.
		fair := 20000 / shards
		for s, c := range counts {
			if c < fair*4/5 || c > fair*6/5 {
				t.Fatalf("shards=%d: shard %d holds %d of 20000 (fair %d)", shards, s, c, fair)
			}
		}
	}
}

func TestMappingRoundTrip(t *testing.T) {
	vectors := roundRobin(rand.New(rand.NewSource(9)), 1500, 4, 16, 10, 0.5)
	set, err := New(vectors, 4, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 1500; id++ {
		v, ok := set.VectorOK(id)
		if !ok {
			t.Fatalf("global id %d missing", id)
		}
		for d := range v {
			if v[d] != vectors[id][d] {
				t.Fatalf("global id %d vector diverges at dim %d", id, d)
			}
		}
	}
	if _, ok := set.VectorOK(1500); ok {
		t.Fatal("out-of-range global id resolved")
	}
	if _, ok := set.VectorOK(-1); ok {
		t.Fatal("negative global id resolved")
	}
}

// TestAddBatchRoutesByPlacement: ingest through the set must land every
// vector on its placement shard, keep global ids sequential, and keep
// search bit-identical to an unsharded control fed the same stream.
func TestAddBatchRoutesByPlacement(t *testing.T) {
	vectors := roundRobin(rand.New(rand.NewSource(13)), 2000, 6, 16, 10, 0.5)
	extra := roundRobin(rand.New(rand.NewSource(14)), 900, 6, 16, 10, 0.5)
	set, err := New(vectors, 3, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(extra); off += 300 {
		batch := extra[off : off+300]
		ids, err := set.AddBatchContext(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for j, id := range ids {
			if id != 2000+off+j {
				t.Fatalf("batch id %d: got global id %d, want %d", j, id, 2000+off+j)
			}
		}
		if _, err := control.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if set.Len() != 2900 {
		t.Fatalf("set length %d, want 2900", set.Len())
	}
	for id := 2000; id < 2900; id++ {
		v, ok := set.VectorOK(id)
		if !ok || v[0] != extra[id-2000][0] {
			t.Fatalf("ingested global id %d not resolvable to its vector", id)
		}
	}
	for q := 0; q < 50; q++ {
		example := extra[q*17%len(extra)]
		want, _ := control.SearchByExampleContext(context.Background(), example, 15)
		got, err := set.SearchByExampleContext(context.Background(), example, 15)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("post-ingest query %d", q), want, got)
	}

	// Validation failures reject the whole batch before any id is assigned.
	if _, err := set.AddBatchContext(context.Background(), [][]float64{{1, 2}}); !errors.Is(err, qcluster.ErrDimensionMismatch) {
		t.Fatalf("short vector: got %v, want ErrDimensionMismatch", err)
	}
	if _, err := set.AddBatchContext(context.Background(), [][]float64{{1, 2, 3, math.NaN(), 5, 6}}); err == nil {
		t.Fatal("NaN vector accepted")
	}
	if set.Len() != 2900 {
		t.Fatalf("failed batches moved the length to %d", set.Len())
	}
}

func TestSetRejectsEmptyShards(t *testing.T) {
	if _, err := New(roundRobin(rand.New(rand.NewSource(1)), 3, 4, 16, 10, 0.5), 8, qcluster.IndexOptions{}); err == nil {
		t.Fatal("3 vectors across 8 shards must fail (some shard is empty)")
	}
	// N shards need index.BlockRows·(N−1)+1 vectors: the last shard's
	// first stripe starts at that id.
	need := index.BlockRows*2 + 1
	vectors := roundRobin(rand.New(rand.NewSource(1)), need, 4, 16, 10, 0.5)
	if _, err := New(vectors[:need-1], 3, qcluster.IndexOptions{}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at least %d vectors", need)) {
		t.Fatalf("%d vectors across 3 shards: got %v, want an error naming the minimum %d", need-1, err, need)
	}
	if set, err := New(vectors, 3, qcluster.IndexOptions{}); err != nil || set.Health()[2].Items != 1 {
		t.Fatalf("%d vectors across 3 shards: %v; want the last shard to hold 1", need, err)
	}
	if _, err := New(nil, 0, qcluster.IndexOptions{}); err == nil {
		t.Fatal("0 shards must fail")
	}
}

func TestSetMetricsAndHealth(t *testing.T) {
	vectors := roundRobin(rand.New(rand.NewSource(2)), 1000, 4, 16, 10, 0.5)
	set, err := New(vectors, 2, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SearchByExampleContext(context.Background(), vectors[0], 5); err != nil {
		t.Fatal(err)
	}
	snap := set.Metrics()
	if snap.Counters["shard.searches"] != 1 {
		t.Fatalf("shard.searches = %d, want 1", snap.Counters["shard.searches"])
	}
	if snap.Gauges["shard.count"] != 2 || snap.Gauges["shard.items"] != 1000 {
		t.Fatalf("set gauges wrong: %v", snap.Gauges)
	}
	// Per-shard blocks are re-keyed, not overwritten: both shards'
	// search counters must be present and sum to the fanout.
	var perShard int64
	for i := 0; i < 2; i++ {
		c, ok := snap.Counters[fmt.Sprintf("shard%d.search.total", i)]
		if !ok {
			t.Fatalf("missing per-shard block shard%d.search.total; counters: %v", i, snap.Counters)
		}
		perShard += c
	}
	if perShard != 2 {
		t.Fatalf("per-shard search counters sum to %d, want 2 (one leg each)", perShard)
	}
	// No planner series, set-level or re-keyed per shard.
	for name := range snap.Counters {
		if strings.Contains(name, "plan.") {
			t.Errorf("merged snapshot carries counter %q", name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, "plan.") {
			t.Errorf("merged snapshot carries histogram %q", name)
		}
	}

	health := set.Health()
	if len(health) != 2 {
		t.Fatalf("health has %d blocks, want 2", len(health))
	}
	items := 0
	for i, h := range health {
		if h.Shard != i || h.Durability != nil {
			t.Fatalf("health block %d malformed: %+v", i, h)
		}
		items += h.Items
	}
	if items != 1000 {
		t.Fatalf("health items sum to %d, want 1000", items)
	}
	if set.ReadOnly() {
		t.Fatal("fresh memory-only set reports read-only")
	}
}

// roundRobin draws k centres uniform in [0, width)^dim, then n vectors
// dealt round-robin over them: vector i is centre i mod k plus an
// N(0, sigma²) draw per component. Neighbouring ids land in different
// clusters, and the tight clusters give many near-ties.
func roundRobin(rng *rand.Rand, n, dim, k int, width, sigma float64) [][]float64 {
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for d := range centres[c] {
			centres[c][d] = rng.Float64() * width
		}
	}
	out := make([][]float64, n)
	for i := range out {
		c := centres[i%k]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()*sigma
		}
		out[i] = v
	}
	return out
}
