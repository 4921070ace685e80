package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	qcluster "repro"
	"repro/internal/obs"
	"repro/internal/shard"
)

// statusClientClosedRequest is the nginx convention for "the client
// went away before we answered" — distinguishable from server-side
// timeouts (504) in access logs and metrics.
const statusClientClosedRequest = 499

// maxBodyBytes bounds request bodies; feature vectors are small, so
// 8 MiB is generous even for bulk feedback batches.
const maxBodyBytes = 8 << 20

// ---- wire types ----

type errorResponse struct {
	Error string `json:"error"`
}

type healthzResponse struct {
	Status      string `json:"status"`
	Items       int    `json:"items,omitempty"`
	Sessions    int    `json:"sessions"`
	InFlight    int    `json:"in_flight"`
	MaxInFlight int    `json:"max_in_flight,omitempty"`
	// Info identifies the serving box and binary — so bench artifacts
	// can record where numbers came from without manual caveats.
	Info *healthzInfo `json:"info,omitempty"`
	// Durability is present when the ingestor is a durable database:
	// WAL footprint, boot-recovery stats, and the read-only degraded
	// flag (which also flips Status to "degraded").
	Durability *qcluster.DurabilityHealth `json:"durability,omitempty"`
	// Shards is present on a sharded backend: one block per shard with
	// its item count and durability state.
	Shards []shard.ShardHealth `json:"shards,omitempty"`
}

// healthzInfo is the box/binary identity block of /healthz.
type healthzInfo struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"vcs_commit,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Shards        int     `json:"shards"`
}

// addVectorsRequest appends vectors. Exactly one of vector (single) or
// vectors (batch) is required; a batch is acknowledged atomically —
// either every vector is durable or none is.
type addVectorsRequest struct {
	Vector  []float64   `json:"vector,omitempty"`
	Vectors [][]float64 `json:"vectors,omitempty"`
}

type addVectorsResponse struct {
	IDs []int `json:"ids"`
}

// searchRequest asks for a stateless k-NN retrieval around an example
// given inline (vector) or by database id (example_id).
type searchRequest struct {
	Vector    []float64 `json:"vector,omitempty"`
	ExampleID *int      `json:"example_id,omitempty"`
	K         int       `json:"k,omitempty"`
}

// createSessionRequest opens a feedback session. Exactly one of example
// / example_id is required; scheme, alpha and max_query_points override
// the default query-model options (qcluster.Options{}) when set.
type createSessionRequest struct {
	Example        []float64 `json:"example,omitempty"`
	ExampleID      *int      `json:"example_id,omitempty"`
	Scheme         string    `json:"scheme,omitempty"` // "diagonal" | "full_inverse"
	Alpha          float64   `json:"alpha,omitempty"`
	MaxQueryPoints int       `json:"max_query_points,omitempty"`
}

type createSessionResponse struct {
	SessionID  string  `json:"session_id"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// feedbackPoint is one relevance judgement. A point whose vector is
// omitted is resolved from the database by id.
type feedbackPoint struct {
	ID     int       `json:"id"`
	Vector []float64 `json:"vector,omitempty"`
	Score  float64   `json:"score"`
}

// feedbackRequest is filled by parseMarks (wire.go), whose grammar
// spells these json keys; a field added here is refused until
// parseMarks learns it. The results page, the search page and the
// feedback ack have no wire types; wire.go appends them.
type feedbackRequest struct {
	Points []feedbackPoint `json:"points"`
}

// ---- handlers ----

func (s *Server) handleAddVectors(w http.ResponseWriter, r *http.Request) int {
	var req addVectorsRequest
	if st := decodeBody(w, r, &req); st != 0 {
		return st
	}
	batch := req.Vectors
	if req.Vector != nil {
		if batch != nil {
			return fail(w, http.StatusBadRequest, "vector and vectors are mutually exclusive")
		}
		batch = [][]float64{req.Vector}
	}
	if len(batch) == 0 {
		return fail(w, http.StatusBadRequest, "one of vector or vectors is required")
	}
	ids, err := s.opt.Ingestor.AddBatchContext(r.Context(), batch)
	if err != nil {
		return failErr(w, err)
	}
	s.met.ingested.Add(int64(len(ids)))
	writeJSONProfiled(r.Context(), w, http.StatusOK, addVectorsResponse{IDs: ids})
	return http.StatusOK
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) int {
	var req searchRequest
	if st := decodeBody(w, r, &req); st != 0 {
		return st
	}
	example := req.Vector
	if example == nil {
		if req.ExampleID == nil {
			return fail(w, http.StatusBadRequest, "one of vector or example_id is required")
		}
		var ok bool
		if example, ok = s.be.VectorOK(*req.ExampleID); !ok {
			return fail(w, http.StatusBadRequest, "example_id %d is not in the database", *req.ExampleID)
		}
	}
	s.met.searches.Inc()
	k := clampK(req.K)
	if p := obs.ProfileFromContext(r.Context()); p != nil {
		p.K = k
	}
	res, err := s.be.SearchByExampleContext(r.Context(), example, k)
	if err != nil && !errors.Is(err, qcluster.ErrPartialResults) {
		return failErr(w, err)
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusPartialContent
	}
	return writePage(r.Context(), w, status, &page{results: res, partial: err != nil})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) int {
	var req createSessionRequest
	if st := decodeBody(w, r, &req); st != 0 {
		return st
	}
	example := req.Example
	if example == nil {
		if req.ExampleID == nil {
			return fail(w, http.StatusBadRequest, "one of example or example_id is required")
		}
		var ok bool
		if example, ok = s.be.VectorOK(*req.ExampleID); !ok {
			return fail(w, http.StatusBadRequest, "example_id %d is not in the database", *req.ExampleID)
		}
	}
	if len(example) != s.be.Dim() {
		return fail(w, http.StatusBadRequest,
			"example has dimension %d, database has %d", len(example), s.be.Dim())
	}
	var opt qcluster.Options
	switch req.Scheme {
	case "":
	case "diagonal":
		opt.Scheme = qcluster.Diagonal
	case "full_inverse", "inverse":
		opt.Scheme = qcluster.FullInverse
	default:
		return fail(w, http.StatusBadRequest,
			"unknown scheme %q (want diagonal or full_inverse)", req.Scheme)
	}
	if req.Alpha != 0 {
		if req.Alpha < 0 || req.Alpha >= 1 {
			return fail(w, http.StatusBadRequest, "alpha %g out of (0, 1)", req.Alpha)
		}
		opt.Alpha = req.Alpha
	}
	if req.MaxQueryPoints != 0 {
		opt.MaxQueryPoints = req.MaxQueryPoints
	}
	// Install the trace relay as the session's sink when span export is
	// on: while a sampled request holds the session its classify/cluster
	// spans become children of the request trace. Skipped otherwise, so
	// the query model keeps its sink-nil zero-cost path.
	var relay *relaySink
	if s.trc.Exports() {
		relay = &relaySink{}
		opt.Sink = relay
	}
	writeJSON(w, http.StatusCreated, createSessionResponse{
		SessionID:  s.mgr.insert(s.be.NewSession(example, opt), relay, timeNow()),
		TTLSeconds: s.lim.sessionTTL.Seconds(),
	})
	return http.StatusCreated
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) int {
	ms, ok := s.mgr.get(r.PathValue("id"), timeNow())
	if !ok {
		return fail(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	k := clampK(0)
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil {
			return fail(w, http.StatusBadRequest, "bad k %q", kq)
		}
		k = clampK(n)
	}
	s.met.searches.Inc()
	if p := obs.ProfileFromContext(r.Context()); p != nil {
		p.K = k
	}
	s.lockSession(r.Context(), ms)
	res, err := ms.sess.ResultsContext(r.Context(), k)
	q := ms.sess.Query()
	pg := page{
		results:     res,
		session:     true,
		refined:     q.Ready(),
		rounds:      q.Rounds(),
		queryPoints: q.NumQueryPoints(),
		degraded:    ms.sess.Health().Degraded(),
	}
	s.unlockSession(ms)
	if err != nil && !errors.Is(err, qcluster.ErrPartialResults) {
		return failErr(w, err)
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusPartialContent
		pg.partial = true
	}
	return writePage(r.Context(), w, status, &pg)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) int {
	var req feedbackRequest
	if st := decodeMarks(w, r, &req); st != 0 {
		return st
	}
	if len(req.Points) == 0 {
		return fail(w, http.StatusBadRequest, "no feedback points")
	}
	// A round clusters every positive mark in O(n²) memory, so the count
	// is capped at the most results a client can have been shown.
	positive := 0
	for _, p := range req.Points {
		if p.Score > 0 {
			positive++
		}
	}
	if positive > maxK {
		return fail(w, http.StatusBadRequest, "feedback carries %d positively scored points; at most %d", positive, maxK)
	}
	ms, ok := s.mgr.get(r.PathValue("id"), timeNow())
	if !ok {
		return fail(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	points := make([]qcluster.Point, 0, len(req.Points))
	for i, p := range req.Points {
		vec := p.Vector
		if vec == nil && p.Score > 0 {
			var found bool
			if vec, found = s.be.VectorOK(p.ID); !found {
				return fail(w, http.StatusBadRequest, "point %d: id %d is not in the database", i, p.ID)
			}
		}
		points = append(points, qcluster.Point{ID: p.ID, Vec: vec, Score: p.Score})
	}
	s.lockSession(r.Context(), ms)
	before := ms.sess.Query().Rounds()
	fbStart := time.Now()
	err := ms.sess.MarkRelevant(points)
	if p := obs.ProfileFromContext(r.Context()); p != nil {
		p.StageAt(obs.StageFeedback, fbStart, time.Since(fbStart))
	}
	q := ms.sess.Query()
	rounds, queryPoints := q.Rounds(), q.NumQueryPoints()
	s.unlockSession(ms)
	if err != nil {
		return failErr(w, err)
	}
	absorbed := rounds > before
	if absorbed {
		s.met.feedbackRounds.Inc()
	}
	writeAck(r.Context(), w, absorbed, rounds, queryPoints)
	return http.StatusOK
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) int {
	if !s.mgr.remove(r.PathValue("id")) {
		return fail(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

// ---- shared plumbing ----

// timeNow is the manager clock (overridable in tests).
var timeNow = func() time.Time { return time.Now() }

// lockSession takes ms's per-session mutex, charging the wait to the
// request's lock stage, and — while the request's trace is being
// exported — routes the session's feedback classify/cluster spans into
// the request trace until unlockSession.
func (s *Server) lockSession(ctx context.Context, ms *managedSession) {
	start := time.Now()
	ms.mu.Lock()
	p := obs.ProfileFromContext(ctx)
	p.StageAt(obs.StageLock, start, time.Since(start))
	if ms.relay != nil {
		if cs := s.trc.SpanSink(p); cs != nil {
			ms.relay.activate(cs)
		}
	}
}

// unlockSession releases the per-session mutex and detaches the request
// trace from the session's span relay.
func (s *Server) unlockSession(ms *managedSession) {
	if ms.relay != nil {
		ms.relay.deactivate()
	}
	ms.mu.Unlock()
}

// writeJSONProfiled is writeJSON with the encode+write wall-clock
// charged to the request profile's encode stage.
func writeJSONProfiled(ctx context.Context, w http.ResponseWriter, status int, v any) {
	p := obs.ProfileFromContext(ctx)
	if p == nil {
		writeJSON(w, status, v)
		return
	}
	start := time.Now()
	writeJSON(w, status, v)
	p.StageAt(obs.StageEncode, start, time.Since(start))
}

// decodeBody parses a bounded JSON request body — one value, then EOF —
// into v, returning a non-zero status (already written) on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) int {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fail(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fail(w, http.StatusBadRequest, "bad request body: trailing data after the JSON value")
	}
	return 0
}

// failErr maps a qcluster error to its HTTP status and writes it.
func failErr(w http.ResponseWriter, err error) int {
	return fail(w, errStatus(err), "%v", err)
}

// errStatus maps qcluster and context errors onto HTTP statuses. Partial
// results are handled by the callers (206 with a body); everything
// reaching here is a plain failure.
func errStatus(err error) int {
	switch {
	case errors.Is(err, qcluster.ErrReadOnly):
		// Durability degraded: the write path is down until the process
		// restarts against healthy storage; reads still serve.
		return http.StatusServiceUnavailable
	case errors.Is(err, qcluster.ErrDimensionMismatch):
		return http.StatusBadRequest
	case errors.Is(err, qcluster.ErrNotReady):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, qcluster.ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func fail(w http.ResponseWriter, status int, format string, args ...any) int {
	writeError(w, status, fmt.Sprintf(format, args...))
	return status
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
