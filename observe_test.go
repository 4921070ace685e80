package qcluster

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/synth"
)

// runFeedbackRounds drives a session through a few feedback rounds,
// marking the category-0 hits each round.
func runFeedbackRounds(t *testing.T, s *Session, db *Database, labels []int, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		res := s.Results(40)
		if len(res) == 0 {
			t.Fatalf("round %d: no results", round)
		}
		var marked []Point
		for _, r := range res {
			if labels[r.ID] == 0 {
				marked = append(marked, Point{ID: r.ID, Vec: db.Vector(r.ID), Score: 3})
			}
		}
		if err := s.MarkRelevant(marked); err != nil {
			t.Fatalf("round %d: MarkRelevant: %v", round, err)
		}
	}
}

// TestSessionTraceEvents is the acceptance test for the feedback-round
// traces: a session with a sink attached must emit, per absorbed round,
// a "feedback.round" span whose events record classification decisions,
// merge outcomes and the final cluster count, plus per-search
// "search.done" and per-metric "metric.build" events.
func TestSessionTraceEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	sink := &MemorySink{}
	s := db.NewSession(db.Vector(0), Options{Sink: sink})
	runFeedbackRounds(t, s, db, labels, 3)
	s.Results(10) // one refined retrieval after the last round

	evs := sink.Events()
	if len(evs) == 0 {
		t.Fatal("sink collected no events")
	}

	// One span per absorbed feedback round.
	starts, ends := 0, 0
	var lastClusters any
	for _, e := range evs {
		if e.Span != "feedback.round" {
			continue
		}
		switch e.Name {
		case "start":
			starts++
			if e.Field("round") == nil || e.Field("new_points") == nil {
				t.Fatalf("round start missing fields: %+v", e)
			}
		case "end":
			ends++
			lastClusters = e.Field("clusters")
			if e.Field("elapsed_ms") == nil {
				t.Fatalf("round end missing elapsed_ms: %+v", e)
			}
		}
	}
	// Later rounds may mark only already-seen IDs, which the model
	// (correctly) skips — so expect at least two absorbed rounds, each
	// with a balanced start/end pair.
	if starts < 2 || starts != ends {
		t.Fatalf("feedback.round spans: %d starts, %d ends, want >= 2 balanced\n%s", starts, ends, sink)
	}
	if n, ok := lastClusters.(int); !ok || n < 1 {
		t.Fatalf("final cluster count = %v, want >= 1", lastClusters)
	}

	// Classification decisions (Algorithm 2) appear from round 2 on;
	// round 1 builds the initial clusters instead.
	if sink.Count("classify.assign")+sink.Count("classify.new_cluster") == 0 {
		t.Fatalf("no classification events recorded\n%s", sink)
	}
	if sink.Count("initial.cluster") == 0 {
		t.Fatalf("no initial clustering event recorded\n%s", sink)
	}
	// Merge summary (Algorithm 3) is emitted once per classify round.
	if sink.Count("merge.done") == 0 {
		t.Fatalf("no merge.done event recorded\n%s", sink)
	}
	for _, e := range evs {
		if e.Name == "merge.done" {
			if e.Field("pairs_tested") == nil || e.Field("clusters") == nil {
				t.Fatalf("merge.done missing fields: %+v", e)
			}
		}
	}

	// Retrieval and metric-construction events.
	if got := sink.Count("search.done"); got != 4 {
		t.Fatalf("search.done events = %d, want 4", got)
	}
	if sink.Count("metric.build") == 0 {
		t.Fatalf("no metric.build event recorded\n%s", sink)
	}
	for _, e := range evs {
		if e.Name == "search.done" && (e.Field("prune_ratio") == nil || e.Field("skipped_evals") == nil) {
			t.Fatalf("search.done missing prune_ratio or skipped_evals: %+v", e)
		}
	}
}

// TestSessionStats is the acceptance test for Session.Stats: latency
// histograms, prune ratios and last-search index work must be exposed.
func TestSessionStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession(db.Vector(0), Options{})
	runFeedbackRounds(t, s, db, labels, 2)
	s.Results(10)

	st := s.Stats()
	if st.Searches != 3 {
		t.Fatalf("Searches = %d, want 3", st.Searches)
	}
	if st.FeedbackRounds != 2 {
		t.Fatalf("FeedbackRounds = %d, want 2", st.FeedbackRounds)
	}
	if st.FeedbackPoints <= 0 {
		t.Fatalf("FeedbackPoints = %d, want > 0", st.FeedbackPoints)
	}
	if st.QueryPoints < 1 {
		t.Fatalf("QueryPoints = %d, want >= 1", st.QueryPoints)
	}
	if st.SearchLatencySeconds.Count != 3 {
		t.Fatalf("latency histogram count = %d, want 3", st.SearchLatencySeconds.Count)
	}
	if st.SearchLatencySeconds.Sum <= 0 {
		t.Fatal("latency histogram sum must be positive")
	}
	if st.PruneRatio.Count != 3 {
		t.Fatalf("prune histogram count = %d, want 3", st.PruneRatio.Count)
	}
	if st.LastSearch.LeavesTotal <= 0 || st.LastSearch.LeavesVisited <= 0 {
		t.Fatalf("LastSearch index work missing: %+v", st.LastSearch)
	}
	if pr := st.LastSearch.PruneRatio(); pr < 0 || pr > 1 {
		t.Fatalf("LastSearch.PruneRatio() = %v", pr)
	}
	if st.LastSearch.LeavesPruned() != st.LastSearch.LeavesTotal-st.LastSearch.LeavesVisited {
		t.Fatalf("LeavesPruned inconsistent: %+v", st.LastSearch)
	}
	if st.DistanceEvals <= 0 || st.LeavesVisited <= 0 {
		t.Fatalf("cumulative index work missing: %+v", st)
	}
	if got := db.Metrics().Counters["search.errors"]; got != 0 {
		t.Fatalf("search.errors = %d across a healthy session, want 0", got)
	}
}

// TestDatabaseMetrics checks the registry-backed snapshot across all
// four Search* entry points plus the outcome counters.
func TestDatabaseMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	db.SearchByExample(db.Vector(0), 5)
	if _, err := db.SearchByExampleContext(context.Background(), db.Vector(1), 5); err != nil {
		t.Fatal(err)
	}

	q := NewQuery(Options{})
	db.Search(q, 5) // not ready → counted, no search
	if _, err := db.SearchContext(context.Background(), q, 5); err == nil {
		t.Fatal("not-ready SearchContext should error")
	}
	if err := q.Feedback([]Point{
		{ID: 0, Vec: db.Vector(0), Score: 3},
		{ID: 1, Vec: db.Vector(1), Score: 3},
	}); err != nil {
		t.Fatal(err)
	}
	db.Search(q, 5)
	if _, err := db.SearchContext(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	}
	db.SearchByExample([]float64{1}, 5) // dimension mismatch → counted, nil

	if _, err := db.Add(db.Vector(0)); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	if got := m.Counters["search.total"]; got != 4 {
		t.Fatalf("search.total = %d, want 4", got)
	}
	if got := m.Counters["search.errors"]; got != 0 {
		t.Fatalf("search.errors = %d with no trapped panic, want 0", got)
	}
	if got := m.Counters["search.not_ready"]; got != 2 {
		t.Fatalf("search.not_ready = %d, want 2", got)
	}
	if got := m.Counters["search.dimension_mismatch"]; got != 1 {
		t.Fatalf("search.dimension_mismatch = %d, want 1", got)
	}
	if got := m.Counters["index.distance_evals"]; got <= 0 {
		t.Fatalf("index.distance_evals = %d, want > 0", got)
	}
	if got := m.Counters["db.adds"]; got != 1 {
		t.Fatalf("db.adds = %d, want 1", got)
	}
	if got := m.Gauges["db.items"]; got != float64(len(vectors)+1) {
		t.Fatalf("db.items = %v, want %d", got, len(vectors)+1)
	}
	h, ok := m.Histograms["search.latency_seconds"]
	if !ok || h.Count != 4 {
		t.Fatalf("search.latency_seconds histogram: ok=%v count=%d, want 4", ok, h.Count)
	}
}

// TestServeDebugEndToEnd starts the database's debug server and checks
// a recorded search shows up in the Prometheus exposition.
func TestServeDebugEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	db.SearchByExample(db.Vector(0), 5)

	d, err := db.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "qcluster_search_total 1") {
		t.Fatalf("metrics missing search total:\n%s", body)
	}
	if !strings.Contains(string(body), "qcluster_index_prune_ratio_bucket") {
		t.Fatalf("metrics missing prune-ratio histogram:\n%s", body)
	}
	if !strings.Contains(string(body), "qcluster_stat_quantile_cache_hits ") {
		t.Fatalf("metrics missing the critical-value cache counters:\n%s", body)
	}
}

// TestInstrumentationAllocationFree asserts the zero-overhead claim for
// the always-on metrics layer and the disabled tracer: recording a
// finished search and the nil-sink trace guards allocate nothing.
func TestInstrumentationAllocationFree(t *testing.T) {
	met := newDBMetrics()
	smet := newSessionMetrics(met.reg)
	stats := index.SearchStats{
		NodesVisited: 10, LeavesVisited: 5, LeavesTotal: 20,
		DistanceEvals: 100, Workers: 1,
	}
	if n := testing.AllocsPerRun(1000, func() {
		met.observeSearch(time.Millisecond, 10, 10, stats, true, false)
		smet.observeRetrieval(time.Millisecond, stats, true, false)
	}); n != 0 {
		t.Fatalf("observeSearch allocates %v/op, want 0", n)
	}
	var nilSink Sink
	if n := testing.AllocsPerRun(1000, func() {
		if nilSink != nil {
			obs.EmitEvent(nilSink, "search.done")
		}
		span := obs.StartSpan(nilSink, "feedback.round")
		if span.Enabled() {
			span.Event("never")
		}
		span.End()
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %v/op, want 0", n)
	}
}

// BenchmarkSearchContextNoSink measures the fully instrumented search
// path with tracing disabled — the configuration every non-debugging
// caller runs. Compare against BenchmarkSearchContextMemorySink to see
// the cost tracing adds only when a sink is attached.
func BenchmarkSearchContextNoSink(b *testing.B) {
	benchmarkSearchContext(b, nil)
}

// BenchmarkSearchContextMemorySink is the sink-attached counterpart.
func BenchmarkSearchContextMemorySink(b *testing.B) {
	benchmarkSearchContext(b, &MemorySink{})
}

func benchmarkSearchContext(b *testing.B, sink Sink) {
	rng := rand.New(rand.NewSource(7))
	vectors := make([][]float64, 2000)
	for i := range vectors {
		v := make([]float64, 8)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		vectors[i] = v
	}
	db, err := NewDatabase(vectors)
	if err != nil {
		b.Fatal(err)
	}
	q := NewQuery(Options{Sink: sink})
	if err := q.Feedback([]Point{
		{ID: 0, Vec: vectors[0], Score: 3},
		{ID: 1, Vec: vectors[1], Score: 3},
	}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SearchContext(ctx, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResplitMetricsSurface(t *testing.T) {
	// Small leaves + a large batch ⇒ re-splits must show up in the
	// maintenance metrics ("index.resplits", "search.resplit_ns"), and so
	// must the re-split of a single Add that overflows a leaf. Nothing is
	// left for later: there is no backlog gauge.
	rng := rand.New(rand.NewSource(45))
	vectors := make([][]float64, 64)
	for i := range vectors {
		vectors[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	db.tree = index.NewHybridTree(db.store, index.TreeOptions{NodeSizeBytes: 256})
	batch := make([][]float64, 256)
	for i := range batch {
		batch[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	if _, err := db.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics()
	if snap.Counters["index.resplits"] == 0 || snap.Counters["search.resplit_ns"] == 0 {
		t.Fatalf("re-split metrics missing: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["index.resplit_pending"]; ok {
		t.Fatal("index.resplit_pending is registered: an insert defers no re-split")
	}
	// Vectors at one point fill one leaf: the 17th overflows it at the
	// latest, and that Add re-splits it.
	before := snap.Counters["index.resplits"]
	for i := 0; db.Metrics().Counters["index.resplits"] == before; i++ {
		if i > db.tree.LeafCapacity() {
			t.Fatalf("%d Adds at one point re-split nothing", i)
		}
		if _, err := db.Add([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	res := db.SearchByExample([]float64{0, 0}, db.Len())
	if len(res) != db.Len() {
		t.Fatalf("found %d of %d items", len(res), db.Len())
	}
}
