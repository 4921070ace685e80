package server

import (
	"testing"
	"time"

	qcluster "repro"
)

func managerFixture(t *testing.T, capacity int, ttl time.Duration) (*sessionManager, *qcluster.Database) {
	t.Helper()
	db, _ := testDB(t)
	return newSessionManager(capacity, ttl, newServerMetrics()), db
}

// insertSession registers sess the way the handler does, without a
// trace relay.
func insertSession(m *sessionManager, sess *qcluster.Session, now time.Time) string {
	return m.insert(sess, nil, now)
}

func TestSessionManagerLRUEviction(t *testing.T) {
	m, db := managerFixture(t, 3, time.Hour)
	now := time.Unix(1000, 0)
	newSess := func() string {
		return insertSession(m, db.NewSession(db.Vector(0), qcluster.Options{}), now)
	}
	a, b, c := newSess(), newSess(), newSess()
	if m.len() != 3 {
		t.Fatalf("len = %d, want 3", m.len())
	}
	// Touch a: it becomes most-recently used, so the fourth create must
	// evict b, the oldest untouched session.
	if _, ok := m.get(a, now.Add(time.Second)); !ok {
		t.Fatal("a must resolve")
	}
	d := newSess()
	if m.len() != 3 {
		t.Fatalf("len after eviction = %d, want 3", m.len())
	}
	if _, ok := m.get(b, now); ok {
		t.Error("b must have been LRU-evicted")
	}
	for _, id := range []string{a, c, d} {
		if _, ok := m.get(id, now); !ok {
			t.Errorf("session %s must survive", id)
		}
	}
	if got := m.met.sessEvictedLRU.Value(); got != 1 {
		t.Errorf("lru evictions = %d, want 1", got)
	}
}

func TestSessionManagerTTLExpiry(t *testing.T) {
	m, db := managerFixture(t, 16, time.Minute)
	now := time.Unix(1000, 0)
	old := insertSession(m, db.NewSession(db.Vector(0), qcluster.Options{}), now)
	fresh := insertSession(m, db.NewSession(db.Vector(1), qcluster.Options{}), now.Add(50*time.Second))
	// At now+70s: old is 70s idle (> TTL), fresh only 20s.
	if n := m.reapExpired(now.Add(70 * time.Second)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if _, ok := m.get(old, now); ok {
		t.Error("expired session must be gone")
	}
	if _, ok := m.get(fresh, now.Add(70*time.Second)); !ok {
		t.Error("fresh session must survive")
	}
	// The get above refreshed fresh's clock; far in the future it expires.
	if n := m.reapExpired(now.Add(1000 * time.Second)); n != 1 {
		t.Fatalf("second reap = %d, want 1", n)
	}
	if got := m.met.sessExpiredTTL.Value(); got != 2 {
		t.Errorf("ttl expiries = %d, want 2", got)
	}
}

func TestSessionManagerReaperGoroutine(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{}, func(l *limits) { l.sessionTTL, l.reapInterval = 30*time.Millisecond, 5*time.Millisecond })
	ex := 0
	var created createSessionResponse
	if st, _ := call(t, s, "POST", "/v1/sessions", createSessionRequest{ExampleID: &ex}, &created); st != 201 {
		t.Fatalf("create = %d", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := call(t, s, "GET", "/v1/sessions/"+created.SessionID+"/results", nil, nil); st != 404 {
		t.Errorf("expired session = %d, want 404", st)
	}
	if s.Metrics().Counters["sessions.expired_ttl"] == 0 {
		t.Error("ttl expiry not counted")
	}
}

// TestSessionEvictedMidRequestIsSafe holds a *managedSession across its
// own eviction: the in-flight holder must keep working (the underlying
// session outlives its map entry) while the id stops resolving.
func TestSessionEvictedMidRequestIsSafe(t *testing.T) {
	m, db := managerFixture(t, 1, time.Hour)
	now := time.Unix(1000, 0)
	id := insertSession(m, db.NewSession(db.Vector(0), qcluster.Options{}), now)
	ms, ok := m.get(id, now)
	if !ok {
		t.Fatal("session must resolve")
	}
	// A second insert evicts the first (capacity 1).
	insertSession(m, db.NewSession(db.Vector(1), qcluster.Options{}), now)
	if _, ok := m.get(id, now); ok {
		t.Fatal("evicted id must not resolve")
	}
	// The held reference still serves retrieval.
	ms.mu.Lock()
	res := ms.sess.Results(5)
	ms.mu.Unlock()
	if len(res) != 5 {
		t.Fatalf("evicted-but-held session returned %d results", len(res))
	}
}
