package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	qcluster "repro"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

func testDB(t *testing.T) (*qcluster.Database, []int) {
	t.Helper()
	vectors, labels := synth.Mixture[[]float64](rand.New(rand.NewSource(7)), 10, 40, 6, 6)
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	return db, labels
}

// startServer starts a listening server over db whose fixed limits each
// tune has adjusted.
func startServer(t *testing.T, db *qcluster.Database, opt Options, tune ...func(*limits)) *Server {
	t.Helper()
	s, err := startTuned(db, opt, tune...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func startTuned(db *qcluster.Database, opt Options, tune ...func(*limits)) (*Server, error) {
	lim := fixedLimits()
	for _, f := range tune {
		f(&lim)
	}
	return listen("127.0.0.1:0", newServer(db, opt, lim))
}

// oneSlot shrinks admission to one in-flight slot and a queue wait.
func oneSlot(wait time.Duration) func(*limits) {
	return func(l *limits) { l.maxInFlight, l.queueWait = 1, wait }
}

// call does one JSON request against a started server and decodes the
// response body into out (when non-nil).
func call(t *testing.T, s *Server, method, path string, body, out any) (status int, raw string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, "http://"+s.Addr()+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(blob) > 0 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, blob, err)
		}
	}
	return resp.StatusCode, string(blob)
}

// TestServerEndpoints drives the whole session lifecycle and the error
// paths over real HTTP.
func TestServerEndpoints(t *testing.T) {
	db, labels := testDB(t)
	s := startServer(t, db, Options{})

	var hz healthzResponse
	if st, _ := call(t, s, "GET", "/healthz", nil, &hz); st != 200 || hz.Status != "ok" {
		t.Fatalf("healthz = %d %+v", st, hz)
	}
	if hz.Items != db.Len() {
		t.Errorf("healthz items = %d, want %d", hz.Items, db.Len())
	}

	// Stateless search: inline vector and example_id must agree.
	var byVec, byID searchResponse
	if st, raw := call(t, s, "POST", "/v1/search",
		searchRequest{Vector: db.Vector(3), K: 10}, &byVec); st != 200 {
		t.Fatalf("search = %d %s", st, raw)
	}
	id3 := 3
	if st, _ := call(t, s, "POST", "/v1/search",
		searchRequest{ExampleID: &id3, K: 10}, &byID); st != 200 {
		t.Fatalf("search by id = %d", st)
	}
	if len(byVec.Results) != 10 || len(byID.Results) != 10 {
		t.Fatalf("result sizes %d/%d, want 10", len(byVec.Results), len(byID.Results))
	}
	for i := range byVec.Results {
		if byVec.Results[i] != byID.Results[i] {
			t.Fatalf("vector and example_id retrievals diverge at %d", i)
		}
	}
	if byVec.Results[0].ID != 3 {
		t.Errorf("self should rank first, got id %d", byVec.Results[0].ID)
	}

	// Error paths: wrong dimension, unknown id, both example forms
	// missing, malformed JSON, bad method.
	if st, _ := call(t, s, "POST", "/v1/search", searchRequest{Vector: []float64{1, 2}}, nil); st != 400 {
		t.Errorf("dim-mismatch search = %d, want 400", st)
	}
	bad := 99999
	if st, _ := call(t, s, "POST", "/v1/search", searchRequest{ExampleID: &bad}, nil); st != 400 {
		t.Errorf("unknown example_id = %d, want 400", st)
	}
	if st, _ := call(t, s, "POST", "/v1/search", searchRequest{}, nil); st != 400 {
		t.Errorf("empty search = %d, want 400", st)
	}
	if st, _ := call(t, s, "POST", "/v1/search", "not an object", nil); st != 400 {
		t.Errorf("malformed body = %d, want 400", st)
	}
	if st, _ := call(t, s, "GET", "/v1/search", nil, nil); st != 405 {
		t.Errorf("GET /v1/search = %d, want 405", st)
	}

	// Session lifecycle: create → unrefined results → feedback →
	// refined results → delete.
	exID := 0
	var created createSessionResponse
	if st, raw := call(t, s, "POST", "/v1/sessions",
		createSessionRequest{ExampleID: &exID}, &created); st != 201 || created.SessionID == "" {
		t.Fatalf("create session = %d %s", st, raw)
	}
	if s.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", s.Sessions())
	}
	base := "/v1/sessions/" + created.SessionID

	var res resultsResponse
	if st, _ := call(t, s, "GET", base+"/results?k=20", nil, &res); st != 200 {
		t.Fatalf("results = %d", st)
	}
	if res.Refined || res.Rounds != 0 {
		t.Fatalf("pre-feedback results must be unrefined: %+v", res)
	}

	var fb feedbackRequest
	for _, r := range res.Results {
		if labels[r.ID] == labels[exID] {
			fb.Points = append(fb.Points, feedbackPoint{ID: r.ID, Score: 3})
		}
	}
	var fbResp feedbackResponse
	if st, raw := call(t, s, "POST", base+"/feedback", fb, &fbResp); st != 200 {
		t.Fatalf("feedback = %d %s", st, raw)
	}
	if !fbResp.Absorbed || fbResp.Rounds != 1 || fbResp.QueryPoints == 0 {
		t.Fatalf("feedback response %+v", fbResp)
	}

	if st, _ := call(t, s, "GET", base+"/results?k=20", nil, &res); st != 200 {
		t.Fatalf("refined results = %d", st)
	}
	if !res.Refined || res.Rounds != 1 || res.QueryPoints != fbResp.QueryPoints {
		t.Fatalf("refined results %+v", res)
	}

	// Feedback error paths: unknown database id, dimension mismatch,
	// empty batch.
	if st, _ := call(t, s, "POST", base+"/feedback",
		feedbackRequest{Points: []feedbackPoint{{ID: 12345678, Score: 3}}}, nil); st != 400 {
		t.Errorf("unknown feedback id = %d, want 400", st)
	}
	if st, _ := call(t, s, "POST", base+"/feedback",
		feedbackRequest{Points: []feedbackPoint{{ID: 1, Vector: []float64{1}, Score: 3}}}, nil); st != 400 {
		t.Errorf("mismatched feedback vector = %d, want 400", st)
	}
	if st, _ := call(t, s, "POST", base+"/feedback", feedbackRequest{}, nil); st != 400 {
		t.Errorf("empty feedback = %d, want 400", st)
	}
	if st, _ := call(t, s, "GET", base+"/results?k=oops", nil, nil); st != 400 {
		t.Errorf("bad k = %d, want 400", st)
	}

	if st, _ := call(t, s, "DELETE", base, nil, nil); st != 204 {
		t.Errorf("delete = %d, want 204", st)
	}
	if st, _ := call(t, s, "GET", base+"/results", nil, nil); st != 404 {
		t.Errorf("results after delete = %d, want 404", st)
	}
	if st, _ := call(t, s, "DELETE", base, nil, nil); st != 404 {
		t.Errorf("double delete = %d, want 404", st)
	}

	snap := s.Metrics()
	if snap.Counters["sessions.created"] != 1 || snap.Counters["sessions.deleted"] != 1 {
		t.Errorf("session counters: %v", snap.Counters)
	}
	if snap.Counters["server.requests"] == 0 || snap.Counters["search.total"] == 0 {
		t.Errorf("merged snapshot must carry both server and database metrics: %v", snap.Counters)
	}
}

// TestServerSessionOptions checks per-session query-model overrides and
// their validation.
func TestServerSessionOptions(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	ex := 0
	var created createSessionResponse
	if st, _ := call(t, s, "POST", "/v1/sessions",
		createSessionRequest{ExampleID: &ex, Scheme: "full_inverse", Alpha: 0.1, MaxQueryPoints: 3},
		&created); st != 201 {
		t.Fatalf("create with options = %d", st)
	}
	if st, _ := call(t, s, "POST", "/v1/sessions",
		createSessionRequest{ExampleID: &ex, Scheme: "bogus"}, nil); st != 400 {
		t.Errorf("bad scheme = %d, want 400", st)
	}
	if st, _ := call(t, s, "POST", "/v1/sessions",
		createSessionRequest{ExampleID: &ex, Alpha: 1.5}, nil); st != 400 {
		t.Errorf("bad alpha = %d, want 400", st)
	}
}

// TestServerPartialResults forces a mid-traversal deadline via the
// fault-injection hook: the response must be a 206 carrying whatever
// the search found, tagged partial.
func TestServerPartialResults(t *testing.T) {
	db, _ := testDB(t)
	defer faultinject.Reset()
	faultinject.Set(faultinject.KNNPop, func() { time.Sleep(2 * time.Millisecond) })
	s := startServer(t, db, Options{}, func(l *limits) { l.requestTimeout = 10 * time.Millisecond })

	var resp searchResponse
	st, raw := call(t, s, "POST", "/v1/search", searchRequest{Vector: db.Vector(0), K: 50}, &resp)
	if st != 206 || !resp.Partial {
		t.Fatalf("interrupted search = %d %s, want 206 partial", st, raw)
	}
	if s.Metrics().Counters["server.partial"] != 1 {
		t.Errorf("partial counter not recorded: %v", s.Metrics().Counters)
	}
}

// TestServerAdmissionShed saturates the single in-flight slot with a
// request parked on the test hook; the next request must be shed 429
// within the queue-wait budget, with Retry-After set and the shed
// counter bumped. maxInFlight caps requests whatever their route: the
// warm case first serves mixed traffic in which session.delete is far
// cheaper than the all-routes mean, then parks one session.delete — a
// second one must still be shed, and must not have run.
func TestServerAdmissionShed(t *testing.T) {
	db, _ := testDB(t)
	const search = `{"vector":[0,0,0,0,0,0],"k":100}`
	do := func(s *Server, method, path, body string) (status int, retryAfter string, err error) {
		req, err := http.NewRequest(method, "http://"+s.Addr()+path, strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), nil
	}
	newSession := func(s *Server) string {
		var created createSessionResponse
		if st, raw := call(t, s, "POST", "/v1/sessions", createSessionRequest{Example: db.Vector(0)}, &created); st != 201 {
			t.Fatalf("create session = %d %s", st, raw)
		}
		return created.SessionID
	}

	for _, tc := range []struct {
		name       string
		warm       bool
		wantParked int
	}{
		{name: "cold search", wantParked: 200},
		{name: "session.delete after warm traffic", warm: true, wantParked: 204},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, db, Options{}, oneSlot(20*time.Millisecond))
			method, parked, second, body := "POST", "/v1/search", "/v1/search", search
			if tc.warm {
				for i := 0; i < 20; i++ {
					for j := 0; j < 4; j++ {
						if st, _, err := do(s, "POST", "/v1/search", search); err != nil || st != 200 {
							t.Fatalf("warm search = %d %v", st, err)
						}
					}
					if st, _, err := do(s, "DELETE", "/v1/sessions/"+newSession(s), ""); err != nil || st != 204 {
						t.Fatalf("warm delete = %d %v", st, err)
					}
				}
				method, body = "DELETE", ""
				parked, second = "/v1/sessions/"+newSession(s), "/v1/sessions/"+newSession(s)
			}
			s.testBlock = make(chan struct{})

			type result struct {
				status     int
				retryAfter string
				err        error
			}
			send := func(path string) <-chan result {
				ch := make(chan result, 1)
				go func() {
					st, ra, err := do(s, method, path, body)
					ch <- result{st, ra, err}
				}()
				return ch
			}
			first := send(parked)

			// Wait until the first request holds the slot (parked on testBlock).
			deadline := time.Now().Add(2 * time.Second)
			for s.adm.inFlight() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("first request never acquired the slot")
				}
				time.Sleep(time.Millisecond)
			}

			select {
			case r := <-send(second):
				if r.err != nil || r.status != 429 {
					t.Fatalf("saturated request = %d %v, want 429", r.status, r.err)
				}
				if r.retryAfter == "" {
					t.Error("429 must carry Retry-After")
				}
			case <-time.After(2 * time.Second):
				close(s.testBlock) // unpark both so the server can drain
				t.Fatal("second request admitted beside the parked one: two requests ran under one slot")
			}

			s.testBlock <- struct{}{} // release the parked request
			if r := <-first; r.err != nil || r.status != tc.wantParked {
				t.Fatalf("parked request finished %d %v, want %d", r.status, r.err, tc.wantParked)
			}
			if shed := s.Metrics().Counters["server.shed"]; shed != 1 {
				t.Errorf("shed counter = %d, want 1", shed)
			}
			if tc.warm && s.Sessions() != 1 {
				t.Errorf("sessions = %d, want 1: the shed delete must not have run", s.Sessions())
			}
		})
	}
}

// TestServerDrainingRejects checks the drain path on a handler-only
// server: after Close, healthz flips to draining and API calls are
// rejected 503.
func TestServerDrainingRejects(t *testing.T) {
	db, _ := testDB(t)
	s := New(db, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.draining.Load() {
		t.Fatal("draining must be set after Close")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("healthz during drain = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/search",
		strings.NewReader(`{"vector":[0,0,0,0,0,0]}`)))
	if rec.Code != 503 {
		t.Errorf("search during drain = %d, want 503", rec.Code)
	}
	if s.Metrics().Counters["server.drain_rejects"] == 0 {
		t.Error("drain rejects not counted")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close must be a no-op, got %v", err)
	}
}

// TestServerDrainNoLeak is the serving-layer goroutine-leak gate
// (mirroring TestServeDebugNoLeak): after serving real traffic and
// draining, the goroutine count must return to its pre-start level.
func TestServerDrainNoLeak(t *testing.T) {
	db, _ := testDB(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := startTuned(db, Options{}, func(l *limits) { l.reapInterval = 5 * time.Millisecond })
		if err != nil {
			t.Fatal(err)
		}
		ops, err := s.ServeOps("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ex := 0
		var created createSessionResponse
		if st, _ := call(t, s, "POST", "/v1/sessions",
			createSessionRequest{ExampleID: &ex}, &created); st != 201 {
			t.Fatalf("create = %d", st)
		}
		if st, _ := call(t, s, "GET", "/v1/sessions/"+created.SessionID+"/results", nil, nil); st != 200 {
			t.Fatalf("results = %d", st)
		}
		resp, err := http.Get("http://" + ops.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{"qcluster_sessions_active", "qcluster_search_total"} {
			if !strings.Contains(string(blob), want) {
				t.Errorf("ops /metrics missing %s", want)
			}
		}
		if err := ops.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerBadRouteAndID covers mux-level misses.
func TestServerBadRouteAndID(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	if st, _ := call(t, s, "GET", "/v1/sessions/nope/results", nil, nil); st != 404 {
		t.Errorf("unknown session id = %d, want 404", st)
	}
	if st, _ := call(t, s, "GET", "/v1/nothing", nil, nil); st != 404 {
		t.Errorf("unknown route = %d, want 404", st)
	}
	if fmt.Sprint(s.Metrics().Counters["sessions.misses"]) == "0" {
		t.Error("session miss not counted")
	}
}

// TestServerRejectsTrailingBody: a request body is one JSON value, then
// EOF. A second value or garbage after it is a 400 that runs no search.
func TestServerRejectsTrailingBody(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{})
	for _, body := range []string{
		`{"example_id":1}{"k":9}`,
		`{"example_id":1} garbage`,
	} {
		resp, err := http.Post("http://"+s.Addr()+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q = %d, want 400", body, resp.StatusCode)
		}
	}
	if st, raw := call(t, s, "POST", "/v1/search", searchRequest{ExampleID: new(int)}, nil); st != 200 {
		t.Fatalf("well-formed body = %d: %s", st, raw)
	}
	if got := s.Metrics().Counters["server.searches"]; got != 1 {
		t.Errorf("server.searches = %d after two malformed bodies and one search, want 1", got)
	}
}
