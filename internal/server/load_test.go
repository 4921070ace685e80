package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	qcluster "repro"
	"repro/internal/synth"
)

// TestServeLoad64Users is the acceptance load test: 64 concurrent
// simulated users each drive >= 3 feedback rounds against one Database
// over real HTTP, with the session capacity set below the user count so
// LRU eviction fires mid-run (users transparently recreate their
// session on 404). The run must finish with zero request failures other
// than the expected 404/429 classes, evictions observed, and — after a
// graceful drain — no leaked goroutines.
func TestServeLoad64Users(t *testing.T) {
	const (
		users  = 64
		rounds = 3
		k      = 20
	)
	vectors, labels := synth.Mixture[[]float64](rand.New(rand.NewSource(99)), 16, 50, 6, 6)
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	s, err := startTuned(db, Options{}, func(l *limits) {
		l.maxSessions = users / 2 // force LRU churn under load
		l.sessionTTL = time.Minute
		l.reapInterval = 10 * time.Millisecond
		l.maxInFlight = 8
		l.queueWait = 250 * time.Millisecond
		l.requestTimeout = 5 * time.Second
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: users}}

	var unexpected atomic.Int64
	var completedRounds atomic.Int64
	post := func(path string, body any, out any) (int, error) {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if out != nil && resp.StatusCode < 300 {
			return resp.StatusCode, json.Unmarshal(raw, out)
		}
		return resp.StatusCode, nil
	}

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			exID := (u * 37) % len(vectors)
			cat := labels[exID]
			createSession := func() (string, bool) {
				var created createSessionResponse
				for attempt := 0; attempt < 50; attempt++ {
					st, err := post("/v1/sessions", createSessionRequest{ExampleID: &exID}, &created)
					switch {
					case err != nil:
						unexpected.Add(1)
						return "", false
					case st == 201:
						return created.SessionID, true
					case st == 429: // shed under pressure: back off and retry
						time.Sleep(2 * time.Millisecond)
					default:
						t.Errorf("user %d: create = %d", u, st)
						unexpected.Add(1)
						return "", false
					}
				}
				unexpected.Add(1)
				return "", false
			}
			id, ok := createSession()
			if !ok {
				return
			}
			for round := 0; round < rounds; round++ {
				// Retrieve, retrying through shed (429) and recreating the
				// session when LRU eviction took it (404).
				var res resultsResponse
				for attempt := 0; ; attempt++ {
					if attempt > 100 {
						unexpected.Add(1)
						return
					}
					resp, err := client.Get(base + "/v1/sessions/" + id + fmt.Sprintf("/results?k=%d", k))
					if err != nil {
						unexpected.Add(1)
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == 200 || resp.StatusCode == 206 {
						if err := json.Unmarshal(raw, &res); err != nil {
							unexpected.Add(1)
							return
						}
						break
					}
					switch resp.StatusCode {
					case 404:
						if id, ok = createSession(); !ok {
							return
						}
					case 429:
						time.Sleep(2 * time.Millisecond)
					default:
						t.Errorf("user %d round %d: results = %d %s", u, round, resp.StatusCode, raw)
						unexpected.Add(1)
						return
					}
				}
				var fb feedbackRequest
				for _, r := range res.Results {
					if labels[r.ID] == cat {
						fb.Points = append(fb.Points, feedbackPoint{ID: r.ID, Score: 3})
					}
				}
				if len(fb.Points) == 0 {
					fb.Points = append(fb.Points, feedbackPoint{ID: exID, Score: 3})
				}
				for attempt := 0; ; attempt++ {
					if attempt > 100 {
						unexpected.Add(1)
						return
					}
					st, err := post("/v1/sessions/"+id+"/feedback", fb, nil)
					if err != nil {
						unexpected.Add(1)
						return
					}
					if st == 200 {
						completedRounds.Add(1)
						break
					}
					switch st {
					case 404:
						if id, ok = createSession(); !ok {
							return
						}
					case 429:
						time.Sleep(2 * time.Millisecond)
					default:
						t.Errorf("user %d round %d: feedback = %d", u, round, st)
						unexpected.Add(1)
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()

	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d requests failed outside the expected 404/429 classes", n)
	}
	if got, want := completedRounds.Load(), int64(users*rounds); got != want {
		t.Fatalf("completed %d feedback rounds, want %d", got, want)
	}
	snap := s.Metrics()
	if snap.Counters["sessions.evicted_lru"] == 0 {
		t.Error("capacity pressure must have evicted sessions")
	}
	if snap.Counters["sessions.created"] < users {
		t.Errorf("sessions created = %d, want >= %d", snap.Counters["sessions.created"], users)
	}
	if snap.Counters["server.requests"] < int64(users*rounds*2) {
		t.Errorf("requests = %d, implausibly low", snap.Counters["server.requests"])
	}
	if snap.Counters["server.errors_5xx"] != 0 {
		t.Errorf("5xx errors under load: %d", snap.Counters["server.errors_5xx"])
	}
	t.Logf("load: %d requests, %d shed, %d evicted, %d feedback rounds, p50=%.2fms",
		snap.Counters["server.requests"], snap.Counters["server.shed"],
		snap.Counters["sessions.evicted_lru"], snap.Counters["sessions.feedback_rounds"],
		snap.Histograms["server.request_latency_seconds"].Quantile(0.5)*1e3)

	// Graceful drain: Close finishes in-flight work and stops every
	// server goroutine.
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after drain: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
