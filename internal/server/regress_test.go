package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	qcluster "repro"
)

// TestInFlightGaugeDropsToZero is the regression test for the in-flight
// gauge accounting: the gauge used to be Set only after acquire (never
// on release), so a snapshot racing another request's release could
// leave it stuck above zero forever on an idle server. Paired Add(±1)
// must read exactly zero once load drains.
func TestInFlightGaugeDropsToZero(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	body, err := json.Marshal(searchRequest{Vector: db.Vector(0), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, err := http.Post("http://"+s.Addr()+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Metrics().Gauges["server.in_flight"]; got != 0 {
		t.Fatalf("server.in_flight = %v after load drained, want 0", got)
	}
	if got := s.adm.inFlight(); got != 0 {
		t.Fatalf("admission in-flight = %d after load drained, want 0", got)
	}
}

// TestPanicRecoveryAfterResponseStarted is the regression test for the
// panic barrier: when a handler panics after committing the response,
// the recovery must not stack a second status line and error body onto
// the bytes already sent; when it panics before writing, the 500 still
// goes out.
func TestPanicRecoveryAfterResponseStarted(t *testing.T) {
	db, _ := testDB(t)
	s := New(db, Options{})
	defer s.Close()

	late := s.wrap("test", func(w http.ResponseWriter, _ *http.Request) int {
		writeJSON(w, http.StatusOK, searchResponse{})
		panic("after commit")
	})
	rec := httptest.NewRecorder()
	late(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("committed status overwritten: %d", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "internal error") {
		t.Fatalf("error body appended to committed response: %q", body)
	}

	early := s.wrap("test", func(http.ResponseWriter, *http.Request) int {
		panic("before any write")
	})
	rec = httptest.NewRecorder()
	early(rec, httptest.NewRequest("POST", "/v1/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unwritten panic = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "internal error") {
		t.Fatalf("500 body missing the error: %q", body)
	}
}

// TestSessionTTLEnforcedAtAccess is the regression test for TTL
// resurrection: get used to refresh lastUsed unconditionally, so a
// request landing between reaper passes would revive a session that
// had already sat idle past its TTL.
func TestSessionTTLEnforcedAtAccess(t *testing.T) {
	m, db := managerFixture(t, 16, time.Minute)
	now := time.Unix(1000, 0)
	id := insertSession(m, db.NewSession(db.Vector(0), qcluster.Options{}), now)

	// Within the TTL the access refreshes the clock...
	if _, ok := m.get(id, now.Add(50*time.Second)); !ok {
		t.Fatal("fresh session must resolve")
	}
	// ...but once idle past it, the access itself expires the session
	// instead of resurrecting it (no reaper pass in between).
	if _, ok := m.get(id, now.Add(50*time.Second).Add(61*time.Second)); ok {
		t.Fatal("TTL-expired session resurrected by access")
	}
	if _, ok := m.get(id, now); ok {
		t.Fatal("expired session still resolvable")
	}
	if m.len() != 0 {
		t.Fatalf("expired session still counted: len = %d", m.len())
	}
	if got := m.met.sessExpiredTTL.Value(); got != 1 {
		t.Fatalf("sessions.expired_ttl = %d, want 1", got)
	}
	if got := m.met.sessMisses.Value(); got != 2 {
		t.Fatalf("sessions.misses = %d, want 2 (expiry + later lookup)", got)
	}
}

// TestNonFiniteDistanceIs500 is the regression test for a page whose
// squared distance overflows to +Inf: encoding/json failed after the
// 200 header, so the client got 200 with an empty body. The page is now
// checked before any header and answered as a counted 500.
func TestNonFiniteDistanceIs500(t *testing.T) {
	db, err := qcluster.NewDatabase([][]float64{{1e200, 0}, {0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, db, Options{})
	// At [-1e200,0] every distance overflows, the root's lower bound too:
	// the search still reaches the rows and answers the same 500.
	for i, q := range [][]float64{{0, 0}, {-1e200, 0}} {
		st, raw := call(t, s, "POST", "/v1/search", searchRequest{Vector: q, K: 3}, nil)
		if st != http.StatusInternalServerError || raw != `{"error":"result 0 has a non-finite distance"}`+"\n" {
			t.Fatalf("search at %v over an overflowing distance = %d %q, want 500 naming result 0", q, st, raw)
		}
		if got := s.Metrics().Counters["server.errors_5xx"]; got != int64(i+1) {
			t.Fatalf("server.errors_5xx = %d, want %d", got, i+1)
		}
	}
}

// TestFeedbackMarkCountCapped is the regression test for a feedback
// body with more positive marks than any page can show: every mark
// reached the first round's O(n²)-memory clustering under the session
// lock, so 4 000 client vectors held the lock for half a minute and a
// body at the size limit asked for a fatal allocation. Over maxK
// positive marks is now a 400 before any model work; zero-score marks
// do not count.
func TestFeedbackMarkCountCapped(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	exID := 0
	var created createSessionResponse
	if st, raw := call(t, s, "POST", "/v1/sessions", createSessionRequest{ExampleID: &exID}, &created); st != 201 {
		t.Fatalf("create session = %d %s", st, raw)
	}
	base := "/v1/sessions/" + created.SessionID
	if st, raw := call(t, s, "POST", base+"/feedback",
		feedbackRequest{Points: []feedbackPoint{{ID: 0, Score: 3}, {ID: 1, Score: 3}}}, nil); st != 200 {
		t.Fatalf("first feedback = %d %s", st, raw)
	}
	var before resultsResponse
	if st, _ := call(t, s, "GET", base+"/results?k=5", nil, &before); st != 200 {
		t.Fatalf("results = %d", st)
	}

	dim := len(db.Vector(0))
	over := feedbackRequest{Points: make([]feedbackPoint, maxK+1)}
	for i := range over.Points {
		vec := make([]float64, dim)
		vec[0], vec[1] = float64(i), float64(i%7)
		over.Points[i] = feedbackPoint{ID: -1, Vector: vec, Score: 1}
	}
	st, raw := call(t, s, "POST", base+"/feedback", over, nil)
	if want := `{"error":"feedback carries 1001 positively scored points; at most 1000"}` + "\n"; st != 400 || raw != want {
		t.Fatalf("over-limit feedback = %d %q, want 400 %q", st, raw, want)
	}
	var after resultsResponse
	if st, _ := call(t, s, "GET", base+"/results?k=5", nil, &after); st != 200 {
		t.Fatalf("results = %d", st)
	}
	if after.Rounds != before.Rounds || after.QueryPoints != before.QueryPoints {
		t.Fatalf("rejected feedback moved the model: rounds %d → %d, query points %d → %d",
			before.Rounds, after.Rounds, before.QueryPoints, after.QueryPoints)
	}

	zeros := feedbackRequest{Points: make([]feedbackPoint, maxK+1)}
	for i := 0; i < maxK; i++ {
		zeros.Points[i] = feedbackPoint{ID: i % db.Len(), Score: 0}
	}
	zeros.Points[maxK] = feedbackPoint{ID: 2, Score: 3}
	if st, raw := call(t, s, "POST", base+"/feedback", zeros, nil); st != 200 {
		t.Fatalf("1000 zero-score marks plus one positive = %d %s, want 200", st, raw)
	}
}

// TestFeedbackBodyAtLimitAllocs fills a feedback body up to maxBodyBytes
// with distinct client vectors — the largest mark flood one request can
// carry — and expects the mark-count 400, with the whole request
// allocating a small multiple of the body, as TestMarksFloodAllocs does
// for malformed floods.
func TestFeedbackBodyAtLimitAllocs(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	exID := 0
	var created createSessionResponse
	if st, raw := call(t, s, "POST", "/v1/sessions", createSessionRequest{ExampleID: &exID}, &created); st != 201 {
		t.Fatalf("create session = %d %s", st, raw)
	}
	const head, tail = `{"points":[`, `]}`
	body := []byte(head)
	n := 0
	for ; ; n++ {
		mark := fmt.Sprintf(`{"id":-1,"score":1,"vector":[%d,%d,0.5,1.5,2.5,3.5]},`, n, n%7)
		if len(body)+len(mark)-1+len(tail) > maxBodyBytes {
			break
		}
		body = append(body, mark...)
	}
	body = append(body[:len(body)-1], tail...)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sessions/"+created.SessionID+"/feedback", bytes.NewReader(body))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	want := fmt.Sprintf(`{"error":"feedback carries %d positively scored points; at most 1000"}`, n) + "\n"
	if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Fatalf("%d-mark body of %d bytes = %d %q, want 400 %q", n, len(body), rec.Code, rec.Body.String(), want)
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 8*uint64(len(body)) {
		t.Errorf("%d bytes allocated for a %d-byte body, want ≤ 8×", a, len(body))
	} else {
		t.Logf("%d marks: %.2f× the body allocated", n, float64(a)/float64(len(body)))
	}
}
