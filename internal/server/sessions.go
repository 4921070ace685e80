package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	qcluster "repro"
	"repro/internal/obs"
)

// managedSession is one tenant's feedback session plus the bookkeeping
// the manager needs: a per-session mutex serializing that tenant's
// feedback/results operations (the underlying Session is itself
// concurrency-safe, but serialization gives each tenant
// read-your-writes ordering across its own requests), and LRU/TTL
// state guarded by the manager's lock.
type managedSession struct {
	id   string
	mu   sync.Mutex // serializes this session's request handling
	sess *qcluster.Session
	home int // home shard (-1 when the backend is unsharded)
	// relay is the session query's trace sink (nil when neither span
	// export nor a user sink is configured); a sampled request activates
	// it under mu to capture feedback spans as trace children.
	relay *relaySink

	// Guarded by the manager's lock.
	elem     *list.Element
	lastUsed time.Time
	created  time.Time
}

// relaySink is installed as a session query's trace sink: events (the
// per-round feedback classify/cluster spans) always reach the
// user-configured base sink, and — while a trace-exported request holds
// the session — also the request's trace as child spans. The active
// pointer is atomic out of caution (the per-session mutex already
// serializes activate/deactivate with the feedback path).
type relaySink struct {
	base   obs.Sink
	active atomic.Pointer[sinkRef]
}

// sinkRef boxes a Sink interface value for atomic.Pointer.
type sinkRef struct{ s obs.Sink }

func (r *relaySink) activate(s obs.Sink) { r.active.Store(&sinkRef{s: s}) }
func (r *relaySink) deactivate()         { r.active.Store(nil) }

// Emit implements obs.Sink.
func (r *relaySink) Emit(e obs.Event) {
	if r.base != nil {
		r.base.Emit(e)
	}
	if ref := r.active.Load(); ref != nil {
		ref.s.Emit(e)
	}
}

// sessionManager maps opaque session IDs to live feedback sessions with
// two eviction policies layered on one LRU list: capacity (creating a
// session beyond MaxSessions evicts the least-recently-used one) and
// idle TTL (a reaper goroutine owned by the Server calls reapExpired
// periodically). Evicting a session mid-request is safe — the holder
// keeps a valid *managedSession whose qcluster.Session outlives its map
// entry; the id simply stops resolving for later requests.
type sessionManager struct {
	mu       sync.Mutex
	sessions map[string]*managedSession
	lru      *list.List // front = most recently used
	capacity int
	ttl      time.Duration
	met      *serverMetrics
}

func newSessionManager(capacity int, ttl time.Duration, met *serverMetrics) *sessionManager {
	return &sessionManager{
		sessions: make(map[string]*managedSession),
		lru:      list.New(),
		capacity: capacity,
		ttl:      ttl,
		met:      met,
	}
}

// newSessionID returns a 128-bit opaque hex id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable misconfiguration; the
		// panic is converted to a 500 by the handler barrier.
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// insert registers sess under id with its routing home, evicting the
// least-recently-used session when the capacity is reached. The caller
// generates the id first (newSessionID) because a sharded backend
// routes the session by it before the session exists.
func (m *sessionManager) insert(id string, sess *qcluster.Session, home int, relay *relaySink, now time.Time) {
	ms := &managedSession{id: id, sess: sess, home: home, relay: relay, lastUsed: now, created: now}
	m.mu.Lock()
	for m.capacity > 0 && len(m.sessions) >= m.capacity {
		oldest := m.lru.Back()
		if oldest == nil {
			break
		}
		m.evictLocked(oldest.Value.(*managedSession))
		m.met.sessEvictedLRU.Inc()
	}
	m.sessions[id] = ms
	ms.elem = m.lru.PushFront(ms)
	m.met.sessActive.Set(float64(len(m.sessions)))
	m.mu.Unlock()
	m.met.sessCreated.Inc()
}

// get resolves an id and marks the session used (moving it to the LRU
// front and refreshing its TTL clock). The TTL is enforced here too,
// not only by the periodic reaper: a session already idle past the TTL
// is expired the moment a request observes it, so an access between
// reaper passes cannot resurrect it.
func (m *sessionManager) get(id string, now time.Time) (*managedSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	if !ok {
		m.met.sessMisses.Inc()
		return nil, false
	}
	if m.ttl > 0 && !ms.lastUsed.After(now.Add(-m.ttl)) {
		m.evictLocked(ms)
		m.met.sessExpiredTTL.Inc()
		m.met.sessMisses.Inc()
		return nil, false
	}
	ms.lastUsed = now
	m.lru.MoveToFront(ms.elem)
	return ms, true
}

// countByHome tallies live sessions by home shard for the sharded
// healthz blocks; sessions without affinity (home -1) are skipped.
func (m *sessionManager) countByHome(shards int) []int {
	out := make([]int, shards)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ms := range m.sessions {
		if ms.home >= 0 && ms.home < shards {
			out[ms.home]++
		}
	}
	return out
}

// remove deletes an id (explicit DELETE). It reports whether the id was
// live.
func (m *sessionManager) remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	if !ok {
		m.met.sessMisses.Inc()
		return false
	}
	m.evictLocked(ms)
	m.met.sessDeleted.Inc()
	return true
}

// reapExpired evicts every session idle longer than the TTL, returning
// how many it removed. A TTL <= 0 disables expiry.
func (m *sessionManager) reapExpired(now time.Time) int {
	if m.ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-m.ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	// Walk from the LRU back: the first fresh session ends the scan.
	for e := m.lru.Back(); e != nil; {
		ms := e.Value.(*managedSession)
		if ms.lastUsed.After(cutoff) {
			break
		}
		prev := e.Prev()
		m.evictLocked(ms)
		m.met.sessExpiredTTL.Inc()
		n++
		e = prev
	}
	return n
}

// evictLocked removes ms from the map and the LRU list. Caller holds
// m.mu.
func (m *sessionManager) evictLocked(ms *managedSession) {
	delete(m.sessions, ms.id)
	m.lru.Remove(ms.elem)
	m.met.sessActive.Set(float64(len(m.sessions)))
}

// len returns the live session count.
func (m *sessionManager) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}
