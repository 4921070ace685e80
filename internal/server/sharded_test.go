package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"

	qcluster "repro"
	"repro/internal/shard"
	"repro/internal/synth"
)

func startShardedServer(t *testing.T, set *shard.Set, opt Options) *Server {
	t.Helper()
	s, err := StartSharded("127.0.0.1:0", set, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestShardedServerEndToEnd drives the full API against a sharded
// backend and an unsharded control over the same collection: searches
// must be bit-identical, sessions must refine through the scatter-gather,
// ingest must route by placement, and healthz/metrics must carry
// per-shard blocks.
func TestShardedServerEndToEnd(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(3)), 8, 60, 6, 6)
	const shards = 3
	set, err := shard.New(vectors, shards, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	s := startShardedServer(t, set, Options{})
	cs := startServer(t, control, Options{})

	// Stateless search: same ids, same distance bits, same order.
	for q := 0; q < 20; q++ {
		req := searchRequest{Vector: vectors[q*19%len(vectors)], K: 12}
		var got, want searchResponse
		if st, raw := call(t, s, "POST", "/v1/search", req, &got); st != http.StatusOK {
			t.Fatalf("sharded search = %d: %s", st, raw)
		}
		if st, _ := call(t, cs, "POST", "/v1/search", req, &want); st != http.StatusOK {
			t.Fatal("control search failed")
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("query %d: %d results, want %d", q, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if got.Results[i].ID != want.Results[i].ID ||
				math.Float64bits(got.Results[i].Dist) != math.Float64bits(want.Results[i].Dist) {
				t.Fatalf("query %d result %d diverges: %+v vs %+v", q, i, got.Results[i], want.Results[i])
			}
		}
	}

	// Sessions run the full feedback loop through the scatter-gather.
	ex := 4
	var created createSessionResponse
	if st, raw := call(t, s, "POST", "/v1/sessions", createSessionRequest{ExampleID: &ex}, &created); st != http.StatusCreated {
		t.Fatalf("create session = %d: %s", st, raw)
	}
	var rr resultsResponse
	if st, raw := call(t, s, "GET", "/v1/sessions/"+created.SessionID+"/results?k=10", nil, &rr); st != http.StatusOK {
		t.Fatalf("results = %d: %s", st, raw)
	}
	var fb feedbackRequest
	for i, r := range rr.Results {
		if i%2 == 0 {
			fb.Points = append(fb.Points, feedbackPoint{ID: r.ID, Score: 2})
		}
	}
	var fresp feedbackResponse
	if st, raw := call(t, s, "POST", "/v1/sessions/"+created.SessionID+"/feedback", fb, &fresp); st != http.StatusOK {
		t.Fatalf("feedback = %d: %s", st, raw)
	}
	if !fresp.Absorbed || fresp.Rounds != 1 {
		t.Fatalf("feedback not absorbed: %+v", fresp)
	}
	if st, _ := call(t, s, "GET", "/v1/sessions/"+created.SessionID+"/results?k=10", nil, &rr); st != http.StatusOK {
		t.Fatal("refined results failed")
	}
	if !rr.Refined {
		t.Fatal("session not refined after feedback")
	}

	// Ingest routes by placement and is immediately searchable.
	newVec, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(99)), 1, 2, 6, 6)
	var added addVectorsResponse
	if st, raw := call(t, s, "POST", "/v1/vectors", addVectorsRequest{Vectors: newVec}, &added); st != http.StatusOK {
		t.Fatalf("add vectors = %d: %s", st, raw)
	}
	if len(added.IDs) != 2 || added.IDs[0] != len(vectors) {
		t.Fatalf("ingest ids = %v, want sequential from %d", added.IDs, len(vectors))
	}
	for _, id := range added.IDs {
		if _, ok := set.VectorOK(id); !ok {
			t.Fatalf("ingested id %d not resolvable", id)
		}
	}

	// healthz carries one block per shard; items sum to the collection.
	var hz healthzResponse
	if st, raw := call(t, s, "GET", "/healthz", nil, &hz); st != http.StatusOK {
		t.Fatalf("healthz = %d: %s", st, raw)
	}
	if hz.Status != "ok" || len(hz.Shards) != shards {
		t.Fatalf("healthz = %+v, want ok with %d shard blocks", hz, shards)
	}
	items := 0
	for i, b := range hz.Shards {
		if b.Shard != i {
			t.Fatalf("shard block %d misnumbered: %+v", i, b)
		}
		items += b.Items
	}
	if items != len(vectors)+2 {
		t.Fatalf("per-shard items sum to %d, want %d", items, len(vectors)+2)
	}

	// Metrics carry the set block and per-shard re-keyed blocks.
	snap := s.Metrics()
	if snap.Counters["shard.searches"] == 0 {
		t.Fatal("shard.searches missing from merged metrics")
	}
	var fanout int64
	for i := 0; i < shards; i++ {
		fanout += snap.Counters[fmt.Sprintf("shard%d.search.total", i)]
	}
	if fanout == 0 {
		t.Fatalf("per-shard search counters missing: %v", snap.Counters)
	}

	if st, _ := call(t, s, "DELETE", "/v1/sessions/"+created.SessionID, nil, nil); st != http.StatusNoContent {
		t.Fatal("delete session failed")
	}
}
