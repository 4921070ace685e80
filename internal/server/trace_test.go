package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	qcluster "repro"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/synth"
)

// jsonBody marshals a request payload for a hand-built http.Request.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

func jsonDecode(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

// traceEvents groups a sink's events by their trace_id field.
func traceEvents(sink *qcluster.MemorySink) map[string][]qcluster.TraceEvent {
	byTrace := map[string][]qcluster.TraceEvent{}
	for _, e := range sink.Events() {
		if tid, ok := e.Field("trace_id").(string); ok {
			byTrace[tid] = append(byTrace[tid], e)
		}
	}
	return byTrace
}

// rootsOf returns the root start events of one trace.
func rootsOf(events []qcluster.TraceEvent) []qcluster.TraceEvent {
	var out []qcluster.TraceEvent
	for _, e := range events {
		if e.Name != "start" {
			continue
		}
		if r, _ := e.Field("root").(bool); r {
			out = append(out, e)
		}
	}
	return out
}

// spanNames tallies events per span name within one trace.
func spanNames(events []qcluster.TraceEvent) map[string]int {
	out := map[string]int{}
	for _, e := range events {
		out[e.Span]++
	}
	return out
}

// TestTraceEndToEndSharded is the tentpole integration test: a
// traceparent-carrying request through a 4-shard server over real HTTP
// must yield exactly one root span whose children cover the admission
// queue, the per-shard scatter legs with their search stats, and the
// merge — and the feedback path must additionally hang the session-lock
// and feedback-round spans off the request trace.
func TestTraceEndToEndSharded(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(11)), 8, 50, 6, 6)
	const shards = 4
	set, err := shard.New(vectors, shards, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &qcluster.MemorySink{}
	s := startShardedServer(t, set, Options{TraceSink: sink, TraceSampleRate: 1})

	// --- Search: client-minted trace context, sampled. ---
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	req, err := http.NewRequest("POST", "http://"+s.Addr()+"/v1/search", jsonBody(t, searchRequest{Vector: vectors[3], K: 10}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("search = %d", resp.StatusCode)
	}

	// The response propagates the continued trace back to the caller.
	echo, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response Traceparent %q unparseable", resp.Header.Get("Traceparent"))
	}
	if echo.TraceID != parent.TraceID {
		t.Fatalf("response trace id %s, want the request's %s", echo.TraceID, parent.TraceID)
	}

	events := traceEvents(sink)[parent.TraceID.String()]
	if len(events) == 0 {
		t.Fatal("no events exported for the request trace")
	}
	roots := rootsOf(events)
	if len(roots) != 1 {
		t.Fatalf("trace has %d root spans, want exactly 1", len(roots))
	}
	root := roots[0]
	if got := root.Field("parent_span_id"); got != parent.SpanID.String() {
		t.Fatalf("root parent_span_id = %v, want the client's span %s", got, parent.SpanID)
	}
	rootSpan, _ := root.Field("span_id").(string)
	if rootSpan != echo.SpanID.String() {
		t.Fatalf("root span %s != response header span %s", rootSpan, echo.SpanID)
	}

	// Every non-root event is a direct child of the root span.
	for _, e := range events {
		if r, _ := e.Field("root").(bool); r {
			continue
		}
		if p := e.Field("parent_span_id"); p != rootSpan {
			t.Fatalf("event %s/%s parent %v, want root %s", e.Span, e.Name, p, rootSpan)
		}
	}

	names := spanNames(events)
	for span, want := range map[string]int{
		"request.search":        2,          // root start + end
		"request.search.queue":  2,          // admission wait
		"request.search.search": 2,          // scatter wall-clock
		"request.search.merge":  2,          // k-way merge
		"request.search.encode": 2,          // response encode
		"request.search.shard":  2 * shards, // one child per shard leg
	} {
		if names[span] != want {
			t.Fatalf("span %s: %d events, want %d (trace: %v)", span, names[span], want, names)
		}
	}

	// Shard children carry the per-shard SearchStats and cover every
	// shard index exactly once.
	seen := map[int]bool{}
	for _, e := range events {
		if e.Span != "request.search.shard" || e.Name != "end" {
			continue
		}
		idx, ok := e.Field("shard").(int)
		if !ok || seen[idx] {
			t.Fatalf("shard end event with bad/duplicate shard field: %v", e.Fields)
		}
		seen[idx] = true
		if lt, _ := e.Field("leaves_total").(int); lt <= 0 {
			t.Fatalf("shard %d missing leaves_total: %v", idx, e.Fields)
		}
		if e.Field("distance_evals") == nil || e.Field("prune_ratio") == nil {
			t.Fatalf("shard %d missing stats fields: %v", idx, e.Fields)
		}
	}
	if len(seen) != shards {
		t.Fatalf("shard children cover %d shards, want %d", len(seen), shards)
	}

	// --- Feedback loop: lock + feedback stages join the trace. ---
	var created createSessionResponse
	ex := 5
	if st, raw := call(t, s, "POST", "/v1/sessions", createSessionRequest{ExampleID: &ex}, &created); st != 201 {
		t.Fatalf("create session = %d: %s", st, raw)
	}
	var rr resultsResponse
	if st, _ := call(t, s, "GET", "/v1/sessions/"+created.SessionID+"/results?k=10", nil, &rr); st != 200 {
		t.Fatal("results failed")
	}

	fbParent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	fb := feedbackRequest{Points: []feedbackPoint{{ID: rr.Results[0].ID, Score: 3}}}
	req, err = http.NewRequest("POST", "http://"+s.Addr()+"/v1/sessions/"+created.SessionID+"/feedback", jsonBody(t, fb))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", fbParent.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("feedback = %d", resp.StatusCode)
	}

	fbEvents := traceEvents(sink)[fbParent.TraceID.String()]
	if len(rootsOf(fbEvents)) != 1 {
		t.Fatalf("feedback trace has %d roots, want 1", len(rootsOf(fbEvents)))
	}
	fbNames := spanNames(fbEvents)
	if fbNames["request.session.feedback.lock"] != 2 {
		t.Fatalf("feedback trace missing session-lock span: %v", fbNames)
	}
	if fbNames["request.session.feedback.feedback"] != 2 {
		t.Fatalf("feedback trace missing feedback stage span: %v", fbNames)
	}
	// The PR-3 classify/cluster round span relays into the request
	// trace as a child (via the session's relay sink).
	if fbNames["feedback.round"] < 2 {
		t.Fatalf("feedback.round spans not relayed into the trace: %v", fbNames)
	}
}

// TestTracePropagationConcurrent is the -race CI gate: concurrent
// traced searches against a sharded server must each export exactly one
// root span under their own trace id, with every child parented to it —
// no cross-request bleed.
func TestTracePropagationConcurrent(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(13)), 6, 40, 6, 6)
	set, err := shard.New(vectors, 4, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &qcluster.MemorySink{}
	s := startShardedServer(t, set, Options{TraceSink: sink, TraceSampleRate: 1})

	const workers = 8
	const perWorker = 10
	parents := make([][]obs.SpanContext, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wkr := 0; wkr < workers; wkr++ {
		parents[wkr] = make([]obs.SpanContext, perWorker)
		for i := range parents[wkr] {
			parents[wkr][i] = obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
		}
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i, parent := range parents[wkr] {
				req, err := http.NewRequest("POST", "http://"+s.Addr()+"/v1/search",
					jsonBody(t, searchRequest{Vector: vectors[(wkr*perWorker+i)%len(vectors)], K: 8}))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Traceparent", parent.Traceparent())
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("worker %d: search = %d", wkr, resp.StatusCode)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	byTrace := traceEvents(sink)
	for _, ps := range parents {
		for _, parent := range ps {
			events := byTrace[parent.TraceID.String()]
			roots := rootsOf(events)
			if len(roots) != 1 {
				t.Fatalf("trace %s: %d roots, want exactly 1", parent.TraceID, len(roots))
			}
			rootSpan, _ := roots[0].Field("span_id").(string)
			if got := roots[0].Field("parent_span_id"); got != parent.SpanID.String() {
				t.Fatalf("trace %s: root parent %v, want %s", parent.TraceID, got, parent.SpanID)
			}
			for _, e := range events {
				if r, _ := e.Field("root").(bool); r {
					continue
				}
				if p := e.Field("parent_span_id"); p != rootSpan {
					t.Fatalf("trace %s: child %s/%s parented to %v, want %s",
						parent.TraceID, e.Span, e.Name, p, rootSpan)
				}
			}
		}
	}
}

// TestRetryAfterDerivation pins the 429 backpressure contract: the
// header is the queue-wait budget rounded up to whole seconds.
func TestRetryAfterDerivation(t *testing.T) {
	if want := strconv.Itoa(int(math.Ceil(queueWait.Seconds()))); retryAfter != want {
		t.Fatalf("Retry-After = %s, want the %v queue wait in whole seconds, %s", retryAfter, queueWait, want)
	}
}

// TestRetryAfterOnShed is the regression test over real HTTP: a shed
// 429 carries the whole-second Retry-After.
func TestRetryAfterOnShed(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{}, oneSlot(10*time.Millisecond))
	s.testBlock = make(chan struct{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		st, _ := call(t, s, "POST", "/v1/search", searchRequest{Vector: db.Vector(0), K: 5}, nil)
		if st != 200 {
			t.Errorf("parked request = %d, want 200", st)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.inFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("POST", "http://"+s.Addr()+"/v1/search", jsonBody(t, searchRequest{Vector: db.Vector(1), K: 5}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("saturated request = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfter {
		t.Fatalf("Retry-After = %q, want %q", got, retryAfter)
	}

	s.testBlock <- struct{}{}
	<-done
}

// TestHealthzInfo verifies the /healthz identity block on both
// backends.
func TestHealthzInfo(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(17)), 6, 40, 6, 6)
	set, err := shard.New(vectors, 4, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := startShardedServer(t, set, Options{})

	var hz healthzResponse
	if st, raw := call(t, s, "GET", "/healthz", nil, &hz); st != 200 {
		t.Fatalf("healthz = %d: %s", st, raw)
	}
	if hz.Info == nil {
		t.Fatal("healthz missing info block")
	}
	if hz.Info.GoVersion == "" {
		t.Error("info.go_version empty")
	}
	if hz.Info.UptimeSeconds < 0 {
		t.Errorf("info.uptime_seconds = %v", hz.Info.UptimeSeconds)
	}
	if hz.Info.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("info.gomaxprocs = %d, want %d", hz.Info.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if hz.Info.Shards != 4 {
		t.Errorf("info.shards = %d, want 4", hz.Info.Shards)
	}

	// Unsharded: one shard, same identity fields.
	db, _ := testDB(t)
	us := startServer(t, db, Options{})
	if st, _ := call(t, us, "GET", "/healthz", nil, &hz); st != 200 {
		t.Fatal("unsharded healthz failed")
	}
	if hz.Info == nil || hz.Info.Shards != 1 {
		t.Fatalf("unsharded info = %+v, want shards 1", hz.Info)
	}
}

// TestNoPricingSeries is TestNoPlanSeries' serving-layer twin: after
// traffic, neither backend's merged registry carries a series under a
// deleted admission-pricing prefix, and /healthz reports no cost field.
func TestNoPricingSeries(t *testing.T) {
	deleted := []string{"server.window.", "server.admission."}

	db, _ := testDB(t)
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(17)), 6, 40, 6, 6)
	set, err := shard.New(vectors, 2, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for owner, s := range map[string]*Server{
		"unsharded": startServer(t, db, Options{}),
		"sharded":   startShardedServer(t, set, Options{}),
	} {
		if st, raw := call(t, s, "POST", "/v1/search", searchRequest{Vector: vectors[0], K: 10}, nil); st != 200 {
			t.Fatalf("%s: search = %d %s", owner, st, raw)
		}
		m := s.Metrics()
		check := func(name string) {
			for _, prefix := range deleted {
				if strings.HasPrefix(name, prefix) {
					t.Errorf("%s registers %q under the deleted prefix %q", owner, name, prefix)
				}
			}
		}
		for name := range m.Counters {
			check(name)
		}
		for name := range m.Gauges {
			check(name)
		}
		for name := range m.Histograms {
			check(name)
		}
		st, raw := call(t, s, "GET", "/healthz", nil, nil)
		if st != 200 || strings.Contains(raw, `"cost_`) {
			t.Errorf("%s: healthz = %d with a cost_ key: %s", owner, st, raw)
		}
	}
}

// recordAll makes every request slow, so the slow-query log keeps it.
func recordAll(l *limits) { l.slowThreshold = time.Nanosecond }

// TestSlowLogEndpoint drives a record-everything server and reads the
// slow-query log back over the ops endpoint.
func TestSlowLogEndpoint(t *testing.T) {
	db, _ := testDB(t)
	s := startServer(t, db, Options{}, recordAll)

	for i := 0; i < 3; i++ {
		if st, _ := call(t, s, "POST", "/v1/search", searchRequest{Vector: db.Vector(i), K: 5}, nil); st != 200 {
			t.Fatal("search failed")
		}
	}
	entries := s.SlowLog().Entries()
	if len(entries) != 3 {
		t.Fatalf("slow log has %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Name != "search" || e.Status != 200 {
			t.Fatalf("slow entry = %+v", e)
		}
		if e.StageMS["search"] <= 0 {
			t.Fatalf("slow entry missing search stage: %+v", e.StageMS)
		}
		if e.BytesOut <= 0 {
			t.Fatalf("slow entry BytesOut = %d, want > 0", e.BytesOut)
		}
	}

	ops, err := s.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	resp, err := http.Get("http://" + ops.Addr() + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Count int              `json:"count"`
		Slow  []*obs.SlowEntry `json:"slow"`
	}
	if err := jsonDecode(resp.Body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 3 || len(doc.Slow) != 3 {
		t.Fatalf("/debug/slow = count %d, %d entries, want 3", doc.Count, len(doc.Slow))
	}
	// Worst first.
	for i := 1; i < len(doc.Slow); i++ {
		if doc.Slow[i].DurationMS > doc.Slow[i-1].DurationMS {
			t.Fatal("/debug/slow not sorted worst-first")
		}
	}
}

// TestSearchWorkReachesEverySurface fails if a work counter is lost
// between the index that counts it and a place it is read — there is one
// SearchStats struct, and a field dropped from it (or from the span's
// field list) goes missing here: the graph counters of an ANN-built
// collection in the root span's end event and in Session.Stats, and a
// swept tree search's counters under /debug/slow's keys.
func TestSearchWorkReachesEverySurface(t *testing.T) {
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(11)), 6, 30, 5, 6)
	annDB, err := qcluster.NewDatabaseWithOptions(vectors, qcluster.IndexOptions{
		Backend: qcluster.BackendANN, ANN: qcluster.ANNOptions{EfSearch: 16}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &qcluster.MemorySink{}
	s := startServer(t, annDB, Options{TraceSink: sink, TraceSampleRate: 1})
	if st, raw := call(t, s, "POST", "/v1/search", searchRequest{Vector: vectors[0], K: 5}, nil); st != 200 {
		t.Fatalf("ann search = %d %s", st, raw)
	}
	ends := 0
	for _, e := range sink.Events() {
		if e.Span != "request.search" || e.Name != "end" {
			continue
		}
		ends++
		for _, key := range []string{"graph_hops", "refine_evals"} {
			if n, _ := e.Field(key).(int); n <= 0 {
				t.Errorf("root span end: %s = %v, want > 0 on an ANN search", key, e.Field(key))
			}
		}
	}
	if ends != 1 {
		t.Fatalf("%d root end events for one search", ends)
	}
	sess := annDB.NewSession(vectors[0], qcluster.Options{})
	if res := sess.Results(5); len(res) != 5 {
		t.Fatalf("ann session returned %d results", len(res))
	}
	if last := sess.Stats().LastSearch; last.GraphHops <= 0 || last.RefineEvals <= 0 {
		t.Errorf("Session.Stats().LastSearch lost the graph work: %+v", last)
	}

	// 12-d Gaussian noise: the tree cannot prune it, so the search sweeps.
	noise, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(14)), 1, 4000, 12, 6)
	treeDB, err := qcluster.NewDatabase(noise)
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, treeDB, Options{}, recordAll)
	if st, raw := call(t, ts, "POST", "/v1/search", searchRequest{Vector: noise[0], K: 25}, nil); st != 200 {
		t.Fatalf("tree search = %d %s", st, raw)
	}
	ops, err := ts.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	resp, err := http.Get("http://" + ops.Addr() + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Slow []struct {
			Stats map[string]int `json:"stats"`
		} `json:"slow"`
	}
	if err := jsonDecode(resp.Body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Slow) != 1 {
		t.Fatalf("/debug/slow has %d entries for one search", len(doc.Slow))
	}
	for _, key := range []string{"swept", "batched_evals", "abandoned_evals"} {
		if doc.Slow[0].Stats[key] <= 0 {
			t.Errorf("/debug/slow stats[%q] = %d, want > 0 on a swept search: %v", key, doc.Slow[0].Stats[key], doc.Slow[0].Stats)
		}
	}
}
