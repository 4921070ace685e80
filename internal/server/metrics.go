package server

import (
	"time"

	"repro/internal/obs"
)

// serverMetrics holds the serving layer's registry plus cached handles
// for everything the request hot path touches, mirroring the database
// layer's convention: recording a request is a fixed set of atomic
// operations with no map lookups and no allocation. All names live
// under "server." / "sessions." so they never collide with the
// database registry ("search.", "index.", "db.", "feedback.") when the
// two are merged onto one ops endpoint.
type serverMetrics struct {
	reg *obs.Registry

	requests       *obs.Counter   // admitted requests, all endpoints
	errors4xx      *obs.Counter   // client errors (bad request, unknown session)
	errors5xx      *obs.Counter   // internal errors
	shed           *obs.Counter   // requests rejected 429 by admission control
	partial        *obs.Counter   // 206 responses (deadline hit mid-search)
	drainRejects   *obs.Counter   // requests rejected 503 during drain
	inFlight       *obs.Gauge     // requests currently holding an admission slot
	draining       *obs.Gauge     // 1 while draining
	latency        *obs.Histogram // request wall-clock, admission wait included
	queueWait      *obs.Histogram // time spent waiting for an admission slot
	searches       *obs.Counter   // /v1/search + /results retrievals served
	ingested       *obs.Counter   // vectors accepted through POST /v1/vectors
	sessActive     *obs.Gauge     // live sessions in the manager
	sessCreated    *obs.Counter
	sessDeleted    *obs.Counter // explicit DELETE
	sessEvictedLRU *obs.Counter // capacity evictions
	sessExpiredTTL *obs.Counter // reaper TTL evictions
	sessMisses     *obs.Counter // requests naming an unknown/evicted session
	feedbackRounds *obs.Counter // feedback requests that absorbed points
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:            reg,
		requests:       reg.Counter("server.requests"),
		errors4xx:      reg.Counter("server.errors_4xx"),
		errors5xx:      reg.Counter("server.errors_5xx"),
		shed:           reg.Counter("server.shed"),
		partial:        reg.Counter("server.partial"),
		drainRejects:   reg.Counter("server.drain_rejects"),
		inFlight:       reg.Gauge("server.in_flight"),
		draining:       reg.Gauge("server.draining"),
		latency:        reg.Histogram("server.request_latency_seconds", obs.LatencyBuckets()),
		queueWait:      reg.Histogram("server.queue_wait_seconds", obs.LatencyBuckets()),
		searches:       reg.Counter("server.searches"),
		ingested:       reg.Counter("server.ingested"),
		sessActive:     reg.Gauge("sessions.active"),
		sessCreated:    reg.Counter("sessions.created"),
		sessDeleted:    reg.Counter("sessions.deleted"),
		sessEvictedLRU: reg.Counter("sessions.evicted_lru"),
		sessExpiredTTL: reg.Counter("sessions.expired_ttl"),
		sessMisses:     reg.Counter("sessions.misses"),
		feedbackRounds: reg.Counter("sessions.feedback_rounds"),
	}
}

// observeRequest records one admitted request's outcome.
func (m *serverMetrics) observeRequest(elapsed time.Duration, status int) {
	m.requests.Inc()
	m.latency.Observe(elapsed.Seconds())
	switch {
	case status == 206:
		m.partial.Inc()
	case status >= 500:
		m.errors5xx.Inc()
	case status >= 400:
		m.errors4xx.Inc()
	}
}
