// Command observability demonstrates the instrumentation surface of the
// public API: per-round feedback traces through a MemorySink and
// log/slog, the Session.Stats and Database.Metrics snapshots, and the
// debug HTTP endpoint with its expvar/Prometheus/pprof handlers.
package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strings"

	qcluster "repro"
)

func main() {
	// A two-mode collection: category 0 occupies two disjoint blobs —
	// the complex-query situation the paper's clustering is built for.
	rng := rand.New(rand.NewSource(42))
	const dim = 4
	var vectors [][]float64
	var labels []int
	blob := func(cat, n int, center, spread float64) {
		for i := 0; i < n; i++ {
			v := make([]float64, dim)
			for d := range v {
				v[d] = center + spread*rng.NormFloat64()
			}
			vectors = append(vectors, v)
			labels = append(labels, cat)
		}
	}
	blob(0, 40, 0, 0.7)
	blob(0, 40, 6, 0.7)
	blob(1, 120, 3, 2.5)
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		panic(err)
	}

	// 1. Traced feedback session: a MemorySink collects one span per
	// feedback round with every classification and merge decision.
	sink := &qcluster.MemorySink{}
	s := db.NewSession(db.Vector(0), qcluster.Options{Sink: sink})
	seen := map[int]bool{}
	for round := 0; round < 3; round++ {
		res := s.Results(120)
		// A realistic user marks a handful of new relevant items per
		// round, so each round feeds the classifier fresh points.
		var marked []qcluster.Point
		for _, r := range res {
			if labels[r.ID] == 0 && !seen[r.ID] && len(marked) < 12 {
				seen[r.ID] = true
				marked = append(marked, qcluster.Point{ID: r.ID, Vec: db.Vector(r.ID), Score: 3})
			}
		}
		if err := s.MarkRelevant(marked); err != nil {
			panic(err)
		}
	}
	s.Results(20)
	fmt.Println("== trace events per feedback round ==")
	for _, e := range sink.Events() {
		if e.Span == "feedback.round" && (e.Name == "start" || e.Name == "end") {
			fmt.Printf("  %s/%s round=%v clusters=%v\n", e.Span, e.Name, e.Field("round"), e.Field("clusters"))
		}
	}
	fmt.Printf("  classification decisions: %d assigns, %d new clusters; merge summaries: %d\n",
		sink.Count("classify.assign"), sink.Count("classify.new_cluster"), sink.Count("merge.done"))

	// 2. Session and database snapshots.
	st := s.Stats()
	fmt.Println("\n== Session.Stats ==")
	fmt.Printf("  searches=%d feedbackRounds=%d queryPoints=%d\n",
		st.Searches, st.FeedbackRounds, st.QueryPoints)
	fmt.Printf("  latency p50=%.3fms p95=%.3fms; last search: %d/%d leaves visited (prune %.2f)\n",
		st.SearchLatencySeconds.Quantile(0.5)*1e3,
		st.SearchLatencySeconds.Quantile(0.95)*1e3,
		st.LastSearch.LeavesVisited, st.LastSearch.LeavesTotal, st.LastSearch.PruneRatio())
	m := db.Metrics()
	fmt.Println("\n== Database.Metrics ==")
	fmt.Printf("  search.total=%d index.distance_evals=%d db.items=%.0f\n",
		m.Counters["search.total"], m.Counters["index.distance_evals"], m.Gauges["db.items"])

	// 3. Debug endpoint: expvar JSON, Prometheus text, pprof.
	d, err := db.ServeDebug("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		panic(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("\n== /metrics on %s (first lines) ==\n", d.Addr())
	lines := strings.SplitN(string(body), "\n", 5)
	for _, l := range lines[:4] {
		fmt.Println("  " + l)
	}

	// 4. Structured logging: the same trace stream through log/slog.
	fmt.Println("\n== slog sink (one retrieval) ==")
	logger := slog.New(slog.NewTextHandler(os.Stdout, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{} // stable output for the example
			}
			return a
		},
	}))
	q := qcluster.NewQuery(qcluster.Options{Sink: qcluster.NewSlogSink(logger)})
	if err := q.Feedback([]qcluster.Point{
		{ID: 0, Vec: db.Vector(0), Score: 3},
		{ID: 1, Vec: db.Vector(1), Score: 3},
	}); err != nil {
		panic(err)
	}
	db.Search(q, 5)
}
