// Package server is the multi-tenant serving layer over a qcluster
// Database: an HTTP/JSON API exposing plain k-NN search and the paper's
// multi-round relevance-feedback loop as long-lived sessions, behind
// admission control and a session manager with TTL and LRU-capacity
// eviction.
//
//	POST   /v1/vectors                 durable ingest (single or batch)
//	POST   /v1/search                  stateless k-NN by example
//	POST   /v1/sessions                open a feedback session
//	GET    /v1/sessions/{id}/results   current top-k of a session
//	POST   /v1/sessions/{id}/feedback  mark relevant items
//	DELETE /v1/sessions/{id}           close a session
//	GET    /healthz                    liveness + drain state
//
// Every /v1 request passes the bounded in-flight semaphore (429 with
// Retry-After when saturated past the queue-wait budget) and runs under
// a per-request deadline propagated into the search core; a deadline
// that fires mid-traversal surfaces the best-effort results as a 206
// partial response instead of an error. Close drains gracefully: new
// work is rejected 503, in-flight requests finish, and every goroutine
// the server started (acceptor, reaper) has exited by the time Close
// returns.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	qcluster "repro"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Options are the serving layer's deployment wiring. Every limit is a
// fixed constant (see below); the zero value serves memory-only ingest
// and exports no spans.
type Options struct {
	// Ingestor, when non-nil, handles POST /v1/vectors — normally the
	// qcluster.DurableDatabase wrapping db, so HTTP ingest is
	// acknowledged only after the write is fsynced. Nil falls back to
	// the database's in-memory AddBatchContext (writes do not survive a
	// restart).
	Ingestor Ingestor
	// TraceSink receives exported request span trees (W3C traceparent
	// in, root span + stage/shard children out). Nil disables span
	// export; cost profiles and the slow log still run.
	TraceSink obs.Sink
	// TraceSampleRate is the head-based span export probability in
	// [0, 1] for requests arriving without a sampled traceparent (an
	// incoming sampled flag forces export). Slow requests export
	// regardless (tail-based keep, obs.DefaultSlowThreshold). Default 0.
	TraceSampleRate float64
}

// The serving limits. No deployment or workload has needed another
// value, so none is an option; README "Fixed serving constants" lists
// them.
const (
	maxSessions    = 1024             // live sessions; one more evicts the least recently used
	sessionTTL     = 30 * time.Minute // idle lifetime of a session
	reapInterval   = 30 * time.Second // how often the reaper scans for idle sessions
	queueWait      = 100 * time.Millisecond
	retryAfter     = "1"             // a 429's Retry-After: queueWait in whole seconds, rounded up
	requestTimeout = 2 * time.Second // per-request deadline; an interrupted search answers 206
	drainTimeout   = 10 * time.Second
	maxK           = 1000 // cap on a request's k
	defaultK       = 20   // k when a request omits it
	slowLogSize    = 64   // /debug/slow entries
)

// limits carries the constants a test shrinks: New and NewSharded serve
// fixedLimits, and only this package's tests call newServer with others.
type limits struct {
	maxSessions    int
	sessionTTL     time.Duration
	reapInterval   time.Duration
	maxInFlight    int // admitted requests, whatever their route
	queueWait      time.Duration
	requestTimeout time.Duration
	slowThreshold  time.Duration
}

func fixedLimits() limits {
	return limits{maxSessions: maxSessions, sessionTTL: sessionTTL, reapInterval: reapInterval,
		maxInFlight: 4 * runtime.GOMAXPROCS(0), queueWait: queueWait,
		requestTimeout: requestTimeout, slowThreshold: obs.DefaultSlowThreshold}
}

// Ingestor is the server's write path: it appends a validated batch and
// returns the assigned ids, acknowledging durability according to the
// implementation (qcluster.DurableDatabase fsyncs first; a plain
// qcluster.Database is memory-only).
type Ingestor interface {
	AddBatchContext(ctx context.Context, vectors [][]float64) ([]int, error)
}

// healthReporter is implemented by durable ingestors
// (qcluster.DurableDatabase); /healthz surfaces their durability state.
type healthReporter interface {
	Health() qcluster.DurabilityHealth
}

// Server is the serving layer. Create one with New (handler only) or
// Start (listening); always Close it — Close stops the reaper goroutine
// and, for a started server, drains in-flight requests and waits for
// the acceptor goroutine.
type Server struct {
	be  Backend
	opt Options
	lim limits
	mgr *sessionManager
	adm *admission
	met *serverMetrics
	trc *obs.Tracer
	mux *http.ServeMux

	draining atomic.Bool
	closed   atomic.Bool

	srv       *http.Server
	lis       net.Listener
	serveDone chan struct{}

	reapStop chan struct{}
	reapDone chan struct{}

	// testBlock, when non-nil, makes every admitted /v1 request wait for
	// one receive before proceeding — the deterministic saturation hook
	// for admission-control tests.
	testBlock chan struct{}
}

// New builds a server over a single unsharded database and starts its
// session reaper. The caller owns serving Handler() and must Close the
// server to stop the reaper.
func New(db *qcluster.Database, opt Options) *Server {
	return newServer(dbBackend{db}, opt, fixedLimits())
}

// NewSharded builds a server over a sharded set: /v1/search fans out to
// every shard (scatter-gather, bit-identical to unsharded), POST
// /v1/vectors routes by placement, and healthz/metrics grow per-shard
// blocks.
func NewSharded(set *shard.Set, opt Options) *Server {
	return newServer(setBackend{set}, opt, fixedLimits())
}

func newServer(be Backend, opt Options, lim limits) *Server {
	met := newServerMetrics()
	s := &Server{
		be:  be,
		opt: opt,
		lim: lim,
		met: met,
		mgr: newSessionManager(lim.maxSessions, lim.sessionTTL, met),
		adm: newAdmission(lim.maxInFlight, lim.queueWait),
		trc: obs.NewTracer(obs.TracerOptions{
			Sink:          opt.TraceSink,
			SampleRate:    opt.TraceSampleRate,
			SlowThreshold: lim.slowThreshold,
			SlowLog:       obs.NewSlowLog(slowLogSize),
		}),
		reapStop: make(chan struct{}),
		reapDone: make(chan struct{}),
	}
	if s.opt.Ingestor == nil {
		s.opt.Ingestor = be
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/vectors", s.wrap("vectors.add", s.handleAddVectors))
	mux.HandleFunc("POST /v1/search", s.wrap("search", s.handleSearch))
	mux.HandleFunc("POST /v1/sessions", s.wrap("session.create", s.handleCreateSession))
	mux.HandleFunc("GET /v1/sessions/{id}/results", s.wrap("session.results", s.handleResults))
	mux.HandleFunc("POST /v1/sessions/{id}/feedback", s.wrap("session.feedback", s.handleFeedback))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap("session.delete", s.handleDeleteSession))
	s.mux = mux
	go s.reapLoop()
	return s
}

// Start is New plus a listening HTTP server on addr (":0" picks a free
// port — read it back from Addr). The acceptor runs on its own
// goroutine until Close.
func Start(addr string, db *qcluster.Database, opt Options) (*Server, error) {
	return listen(addr, New(db, opt))
}

// StartSharded is NewSharded plus a listening HTTP server on addr.
func StartSharded(addr string, set *shard.Set, opt Options) (*Server, error) {
	return listen(addr, NewSharded(set, opt))
}

func listen(addr string, s *Server) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		_ = s.srv.Serve(lis) // http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// Handler returns the server's HTTP handler (for embedding into an
// existing mux or an httptest server).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address of a Start-ed server ("" for a
// handler-only server).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Sessions returns the live session count.
func (s *Server) Sessions() int { return s.mgr.len() }

// Metrics returns a merged snapshot of the server's and the backend's
// registries — the full serving picture under one set of names. A
// sharded backend contributes its set-level block plus every shard's
// metrics re-keyed under "shard<i>.".
func (s *Server) Metrics() obs.Snapshot {
	snap := s.met.reg.Snapshot()
	snap.Merge(s.be.Metrics())
	return snap
}

// ServeOps mounts the debug/ops endpoints (expvar JSON, Prometheus
// text, pprof, and the slow-query log at /debug/slow) for the merged
// server + database registries on their own listener, typically a
// non-public ops port. The caller owns the returned server and must
// Close it.
func (s *Server) ServeOps(addr string) (*obs.DebugServer, error) {
	extra := map[string]http.Handler{"/debug/slow": s.trc.SlowLog()}
	return obs.ServeDebugWith(addr, extra, s.met.reg, s.be.Registry())
}

// SlowLog returns the server's slow-query log — the same data
// /debug/slow serves.
func (s *Server) SlowLog() *obs.SlowLog { return s.trc.SlowLog() }

// Close drains the server: new requests are rejected 503, in-flight
// requests get up to drainTimeout to finish, the session reaper and
// (for a Start-ed server) the acceptor goroutine are stopped and
// waited for. Idempotent; the first call's result wins.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.draining.Store(true)
	s.met.draining.Set(1)
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err = s.srv.Shutdown(ctx)
		cancel()
		<-s.serveDone
	}
	close(s.reapStop)
	<-s.reapDone
	return err
}

// reapLoop is the session reaper: every reap interval it evicts
// sessions idle past the TTL. It exits on Close.
func (s *Server) reapLoop() {
	defer close(s.reapDone)
	ticker := time.NewTicker(s.lim.reapInterval)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			s.mgr.reapExpired(now)
		case <-s.reapStop:
			return
		}
	}
}

// wrap is the common /v1 request pipeline: drain rejection, request
// tracing (W3C traceparent in, root span + cost profile always),
// admission control with queue-wait shedding, the per-request deadline,
// latency metrics and a panic barrier. route is the span/profile label —
// passed explicitly because the profile outlives the request and must
// not retain mux internals.
func (s *Server) wrap(route string, h func(http.ResponseWriter, *http.Request) (status int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.met.drainRejects.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		start := time.Now()
		// "Traceparent" (canonical form) avoids the header-key
		// canonicalization alloc on the always-on path.
		prof := s.trc.Start(route, r.Header.Get("Traceparent"), start)
		queued, err := s.adm.acquire(r.Context())
		queueWait := time.Since(start)
		prof.StageAt(obs.StageQueue, start, queueWait)
		if queued {
			s.met.queueWait.Observe(queueWait.Seconds())
		}
		if err != nil {
			status := statusClientClosedRequest
			if errors.Is(err, errShed) {
				s.met.shed.Inc()
				w.Header().Set("Retry-After", retryAfter)
				status = http.StatusTooManyRequests
				writeError(w, status, "server overloaded, retry later")
			} else { // client gave up while queued
				writeError(w, status, "client closed request")
			}
			if prof != nil {
				prof.Status = status
				s.trc.Finish(prof, time.Now())
			}
			return
		}
		// Paired inc/dec keeps the gauge exact under concurrency; a
		// Set-from-snapshot on either edge can race another request's
		// release and leave the gauge stuck above zero on an idle server.
		s.met.inFlight.Add(1)
		defer func() {
			s.adm.release()
			s.met.inFlight.Add(-1)
		}()
		if s.testBlock != nil {
			<-s.testBlock
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.lim.requestTimeout)
		defer cancel()
		if prof != nil {
			ctx = obs.ContextWithProfile(ctx, prof)
			if r.ContentLength > 0 {
				prof.BytesIn = r.ContentLength
			}
			if prof.Ctx.Sampled {
				// Inject the root span context so the caller can correlate
				// its records with the exported trace. Sampled-only: the
				// header render allocates.
				w.Header().Set("Traceparent", prof.Ctx.Traceparent())
			}
		}

		sr := &statusRecorder{ResponseWriter: w}
		status := http.StatusInternalServerError
		defer func() {
			v := recover()
			s.met.observeRequest(time.Since(start), status)
			// Only synthesize a 500 when the handler never started the
			// response; stacking a second status line and error body
			// onto committed bytes corrupts the reply mid-stream.
			if v != nil && !sr.wrote {
				writeError(sr, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
			if prof != nil {
				prof.Status = status
				prof.BytesOut = sr.bytes
				s.trc.Finish(prof, time.Now())
			}
		}()
		status = h(sr, r.WithContext(ctx))
	}
}

// statusRecorder tracks whether the wrapped handler has begun writing
// the response (so the panic barrier knows if a 500 can still be sent)
// and counts response bytes for the request's cost profile.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
	bytes int64
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// processStart anchors the healthz uptime report.
var processStart = time.Now()

// buildInfo resolves the binary's identity once: Go version and the VCS
// commit (with a "+dirty" suffix when built from a modified tree) via
// the embedded build info. Empty commit for non-VCS builds (go test,
// GOFLAGS=-buildvcs=false).
var buildInfo = sync.OnceValue(func() (info struct{ goVersion, commit string }) {
	info.goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.GoVersion != "" {
		info.goVersion = bi.GoVersion
	}
	dirty := false
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			info.commit = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if dirty && info.commit != "" {
		info.commit += "+dirty"
	}
	return info
})

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, healthzResponse{Status: "draining"})
		return
	}
	bi := buildInfo()
	info := &healthzInfo{
		UptimeSeconds: time.Since(processStart).Seconds(),
		GoVersion:     bi.goVersion,
		Commit:        bi.commit,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Shards:        1,
		IndexInfo:     s.be.IndexInfo(),
	}
	resp := healthzResponse{
		Status:      "ok",
		Items:       s.be.Len(),
		Sessions:    s.mgr.len(),
		InFlight:    s.adm.inFlight(),
		MaxInFlight: s.adm.capacity(),
		Info:        info,
	}
	if hr, ok := s.opt.Ingestor.(healthReporter); ok {
		h := hr.Health()
		resp.Durability = &h
		if h.ReadOnly {
			// Degraded, not down: reads still serve, so stay 200 and let
			// the probe read the status string.
			resp.Status = "degraded"
		}
	}
	if sb, ok := s.be.(setBackend); ok {
		info.Shards = sb.NumShards()
		resp.Shards = sb.Health()
		if sb.ReadOnly() {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// clampK resolves a requested result size against the default and cap.
func clampK(k int) int {
	if k <= 0 {
		return defaultK
	}
	if k > maxK {
		return maxK
	}
	return k
}
