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
	// relay is the session query's trace sink (nil when span export is
	// off); a sampled request activates it under mu to capture feedback
	// spans as trace children.
	relay *relaySink

	// Guarded by the manager's lock.
	elem     *list.Element
	lastUsed time.Time
	created  time.Time
}

// relaySink is installed as a session query's trace sink: while a
// trace-exported request holds the session, its events (the per-round
// feedback classify/cluster spans) reach the request's trace as child
// spans, and otherwise go nowhere. The active pointer is atomic out of
// caution (the per-session mutex already serializes
// activate/deactivate with the feedback path).
type relaySink struct {
	active atomic.Pointer[sinkRef]
}

// sinkRef boxes a Sink interface value for atomic.Pointer.
type sinkRef struct{ s obs.Sink }

func (r *relaySink) activate(s obs.Sink) { r.active.Store(&sinkRef{s: s}) }
func (r *relaySink) deactivate()         { r.active.Store(nil) }

// Emit implements obs.Sink.
func (r *relaySink) Emit(e obs.Event) {
	if ref := r.active.Load(); ref != nil {
		ref.s.Emit(e)
	}
}

// sessionManager maps opaque session IDs to live feedback sessions with
// two eviction policies layered on one LRU list: capacity (creating a
// session beyond the cap evicts the least-recently-used one) and
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

// insert registers sess under a fresh id, evicting the
// least-recently-used session when the capacity is reached.
func (m *sessionManager) insert(sess *qcluster.Session, relay *relaySink, now time.Time) string {
	ms := &managedSession{id: newSessionID(), sess: sess, relay: relay, lastUsed: now, created: now}
	m.mu.Lock()
	for len(m.sessions) >= m.capacity {
		m.evictLocked(m.lru.Back().Value.(*managedSession))
		m.met.sessEvictedLRU.Inc()
	}
	m.sessions[ms.id] = ms
	ms.elem = m.lru.PushFront(ms)
	m.met.sessActive.Set(float64(len(m.sessions)))
	m.mu.Unlock()
	m.met.sessCreated.Inc()
	return ms.id
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
	if !ms.lastUsed.After(now.Add(-m.ttl)) {
		m.evictLocked(ms)
		m.met.sessExpiredTTL.Inc()
		m.met.sessMisses.Inc()
		return nil, false
	}
	ms.lastUsed = now
	m.lru.MoveToFront(ms.elem)
	return ms, true
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
// how many it removed.
func (m *sessionManager) reapExpired(now time.Time) int {
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
