package server

import (
	"math/rand"
	"net/http"
	"testing"

	qcluster "repro"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

func durableTestDB(t *testing.T) *qcluster.DurableDatabase {
	t.Helper()
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(7)), 10, 40, 6, 6)
	d, err := qcluster.OpenDatabase(t.TempDir(), qcluster.DurableOptions{Seed: vectors})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestIngestEndpoint(t *testing.T) {
	d := durableTestDB(t)
	s := startServer(t, d.Database, Options{Ingestor: d})

	before := d.Len()
	var resp addVectorsResponse
	status, raw := call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), 1, 6, 1)[0]}, &resp)
	if status != http.StatusOK || len(resp.IDs) != 1 || resp.IDs[0] != before {
		t.Fatalf("single add: status %d ids %v (%s)", status, resp.IDs, raw)
	}

	status, raw = call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vectors: synth.Gaussian[[]float64](rand.New(rand.NewSource(2)), 5, 6, 1)}, &resp)
	if status != http.StatusOK || len(resp.IDs) != 5 {
		t.Fatalf("batch add: status %d ids %v (%s)", status, resp.IDs, raw)
	}
	if d.Len() != before+6 {
		t.Fatalf("Len after ingest: %d, want %d", d.Len(), before+6)
	}

	// Ingested vectors are immediately searchable.
	var sr searchResponse
	status, raw = call(t, s, "POST", "/v1/search",
		searchRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(2)), 5, 6, 1)[0], K: 3}, &sr)
	if status != http.StatusOK || len(sr.Results) != 3 {
		t.Fatalf("search after ingest: status %d (%s)", status, raw)
	}

	// Validation errors map to 400.
	if status, _ = call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vector: []float64{1, 2}}, nil); status != http.StatusBadRequest {
		t.Fatalf("dim mismatch: status %d, want 400", status)
	}
	if status, _ = call(t, s, "POST", "/v1/vectors", addVectorsRequest{}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty request: status %d, want 400", status)
	}
	if status, _ = call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(3)), 1, 6, 1)[0], Vectors: synth.Gaussian[[]float64](rand.New(rand.NewSource(3)), 1, 6, 1)}, nil); status != http.StatusBadRequest {
		t.Fatalf("both vector and vectors: status %d, want 400", status)
	}
	if got := s.Metrics().Counters["server.ingested"]; got != 6 {
		t.Fatalf("server.ingested = %d, want 6", got)
	}
}

func TestIngestDegradedModeSurfaces503AndHealthz(t *testing.T) {
	defer faultinject.Reset()
	d := durableTestDB(t)
	s := startServer(t, d.Database, Options{Ingestor: d})

	// Healthy: healthz has a durability block, status ok.
	var hz healthzResponse
	if status, raw := call(t, s, "GET", "/healthz", nil, &hz); status != http.StatusOK ||
		hz.Status != "ok" || hz.Durability == nil || hz.Durability.ReadOnly {
		t.Fatalf("healthy healthz: %d %s", status, raw)
	}

	faultinject.Set(faultinject.WALFsyncError, nil)
	status, raw := call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(4)), 1, 6, 1)[0]}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d (%s), want 503", status, raw)
	}
	faultinject.Reset()

	// Degraded is sticky and visible on /healthz, but the node stays up
	// (200) because reads still serve.
	status, raw = call(t, s, "GET", "/healthz", nil, &hz)
	if status != http.StatusOK || hz.Status != "degraded" || hz.Durability == nil || !hz.Durability.ReadOnly {
		t.Fatalf("degraded healthz: %d %s", status, raw)
	}
	var sr searchResponse
	if status, raw = call(t, s, "POST", "/v1/search",
		searchRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(5)), 1, 6, 1)[0], K: 3}, &sr); status != http.StatusOK {
		t.Fatalf("search in degraded mode: %d (%s)", status, raw)
	}
}

func TestIngestFallsBackToDatabase(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{}) // no Ingestor: memory-only path
	before := db.Len()
	var resp addVectorsResponse
	status, raw := call(t, s, "POST", "/v1/vectors",
		addVectorsRequest{Vector: synth.Gaussian[[]float64](rand.New(rand.NewSource(6)), 1, 6, 1)[0]}, &resp)
	if status != http.StatusOK || len(resp.IDs) != 1 {
		t.Fatalf("fallback add: status %d (%s)", status, raw)
	}
	if db.Len() != before+1 {
		t.Fatalf("fallback add did not apply")
	}
	var hz healthzResponse
	if _, raw := call(t, s, "GET", "/healthz", nil, &hz); hz.Durability != nil {
		t.Fatalf("memory-only healthz grew a durability block: %s", raw)
	}
}
