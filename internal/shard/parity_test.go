package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	qcluster "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
)

// parityColumn is one place a session can search: an unsharded
// database or a shard set, on one backend.
type parityColumn struct {
	name       string
	ann        bool // built with BackendANN
	shards     int  // 0 for the database
	newSession func(example []float64, opt qcluster.Options) *qcluster.Session
	search     func(ctx context.Context, example []float64, k int) ([]qcluster.Result, error)
	add        func(ctx context.Context, vectors [][]float64) ([]int, error)
	registry   *obs.Registry
	metrics    func() obs.Snapshot
}

// parityColumns builds, per backend, the database column and then one
// set column per shard count.
func parityColumns(t *testing.T, vectors [][]float64, ef int, shardCounts ...int) []parityColumn {
	t.Helper()
	var cols []parityColumn
	for _, be := range []struct {
		name string
		opt  qcluster.IndexOptions
	}{
		{"tree", qcluster.IndexOptions{}},
		{"ann", qcluster.IndexOptions{Backend: qcluster.BackendANN, ANN: qcluster.ANNOptions{EfSearch: ef}}},
	} {
		db, err := qcluster.NewDatabaseWithOptions(vectors, be.opt)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, parityColumn{
			name: be.name + "/database", ann: be.name == "ann",
			newSession: db.NewSession, search: db.SearchByExampleContext, add: db.AddBatchContext,
			registry: db.Registry(), metrics: db.Metrics,
		})
		for _, shards := range shardCounts {
			set, err := New(vectors, shards, be.opt)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, parityColumn{
				name: fmt.Sprintf("%s/%d-shard set", be.name, shards), ann: be.name == "ann", shards: shards,
				newSession: set.NewSession, search: set.SearchByExampleContext, add: set.AddBatchContext,
				registry: set.Registry(), metrics: set.Metrics,
			})
		}
	}
	return cols
}

// TestSessionParity runs one seeded feedback script against every place
// a session can search — {Database, 1-shard Set, 3-shard Set} × {tree,
// ann with an exhaustive beam} — and asserts there is one Session: the
// same pages bit for bit, the same sentinel errors, the same Stats, the
// same "search.done" events, and the same movement of the backend
// registry's feedback and degradation counters, sharded or not.
func TestSessionParity(t *testing.T) {
	defer faultinject.Reset()
	const n, dim, k = 1200, 6, 25
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(31)), n, dim, 16, 10, 0.5)
	ef := n + 1
	ctx := context.Background()
	cols := parityColumns(t, vectors, ef, 1, 3)

	// The script's oracle: synth.RoundRobin deals id i to cluster i%16.
	example := vectors[5]
	relevant := func(id int) bool { return id%16 == 5 }

	type outcome struct {
		pages    [][]qcluster.Result
		stats    qcluster.SessionStats
		events   int
		counters map[string]int64
	}
	outcomes := make([]outcome, len(cols))

	for c, col := range cols {
		t.Run(col.name, func(t *testing.T) {
			sink := &obs.MemorySink{}
			// FullInverse: the first rounds' clusters hold fewer points
			// than dimensions, so the degraded-covariance path runs.
			opt := qcluster.Options{Scheme: qcluster.FullInverse, Sink: sink}
			sess := col.newSession(example, opt)
			out := &outcomes[c]
			page := func(label string) []qcluster.Result {
				res, err := sess.ResultsContext(ctx, k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				out.pages = append(out.pages, res)
				return res
			}

			// Example query, then 3 rounds of oracle marks; each round
			// re-marks the previous round's first id.
			res := page("example query")
			remark := -1
			for round := 0; round < 3; round++ {
				var marks []qcluster.Point
				if remark >= 0 {
					marks = append(marks, qcluster.Point{ID: remark, Vec: vectors[remark], Score: 3})
				}
				for _, r := range res {
					if relevant(r.ID) && len(marks) < 4+3*round {
						marks = append(marks, qcluster.Point{ID: r.ID, Vec: vectors[r.ID], Score: 3})
					}
				}
				if len(marks) == 0 {
					t.Fatalf("round %d: the oracle marked nothing", round)
				}
				remark = marks[len(marks)-1].ID
				if err := sess.MarkRelevant(marks); err != nil {
					t.Fatalf("round %d: MarkRelevant: %v", round, err)
				}
				res = page(fmt.Sprintf("round %d", round))
			}

			// A NaN mark is rejected and absorbs nothing.
			rounds := sess.Query().Rounds()
			if err := sess.MarkRelevant([]qcluster.Point{{ID: 7, Vec: []float64{1, math.NaN(), 0, 0, 0, 0}, Score: 3}}); err == nil {
				t.Fatal("NaN mark accepted")
			}
			if err := sess.MarkRelevant([]qcluster.Point{{ID: 7, Vec: []float64{1, 2}, Score: 3}}); err == nil {
				t.Fatal("wrong-dimension mark accepted")
			}
			if got := sess.Query().Rounds(); got != rounds {
				t.Fatalf("rejected marks moved the model: rounds %d → %d", rounds, got)
			}

			// A wrong-dimension example, to a session and to a stateless
			// search.
			wrongDim := append([]float64{0}, example...)
			if _, err := col.newSession(wrongDim, opt).ResultsContext(ctx, k); !errors.Is(err, qcluster.ErrDimensionMismatch) {
				t.Fatalf("wrong-dimension example: err = %v, want ErrDimensionMismatch", err)
			}
			if _, err := col.search(ctx, wrongDim, k); !errors.Is(err, qcluster.ErrDimensionMismatch) {
				t.Fatalf("wrong-dimension stateless search: err = %v, want ErrDimensionMismatch", err)
			}

			// A pre-cancelled context: its error, not partial results.
			done, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := sess.ResultsContext(done, k); !errors.Is(err, context.Canceled) || errors.Is(err, qcluster.ErrPartialResults) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled and not ErrPartialResults", err)
			}

			// A context cancelled at the first tree-traversal pop: the
			// tree columns return partial results; the ANN graph never
			// pops the tree, so there the retrieval simply completes.
			mid, cancelMid := context.WithCancel(ctx)
			var fired atomic.Bool
			faultinject.Set(faultinject.KNNPop, func() {
				if fired.CompareAndSwap(false, true) {
					cancelMid()
				}
			})
			_, err := sess.ResultsContext(mid, k)
			faultinject.Clear(faultinject.KNNPop)
			cancelMid()
			if col.ann {
				if err != nil {
					t.Fatalf("ann retrieval under the tree hook: %v", err)
				}
			} else if !errors.Is(err, qcluster.ErrPartialResults) || !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-search cancel: err = %v, want ErrPartialResults and context.Canceled", err)
			}

			// A singular full-inverse model: a search that never runs —
			// cancelled up front — is a degraded search on neither the
			// session nor the backend registry; the one that runs is one
			// on both.
			faultinject.Set(faultinject.SingularCovariance, nil)
			degraded := func() int64 {
				n := sess.Stats().DegradedSearches
				if reg := col.registry.Snapshot().Counters["search.degraded"]; reg != n {
					t.Fatalf("registry search.degraded = %d, Stats().DegradedSearches = %d", reg, n)
				}
				return n
			}
			before := degraded()
			if _, err := sess.ResultsContext(done, k); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled, singular model: err = %v, want context.Canceled", err)
			}
			if got := degraded(); got != before {
				t.Fatalf("a search that never ran moved the degraded count %d → %d", before, got)
			}
			page("singular model")
			if got := degraded(); got != before+1 {
				t.Fatalf("one degraded retrieval moved the degraded count %d → %d", before, got)
			}
			faultinject.Clear(faultinject.SingularCovariance)

			out.stats = sess.Stats()
			out.events = sink.Count("search.done")
			snap := col.registry.Snapshot()
			out.counters = map[string]int64{}
			for _, name := range []string{"feedback.rounds", "feedback.points", "search.degraded", "search.dimension_mismatch"} {
				out.counters[name] = snap.Counters[name]
			}
			if int64(out.events) != out.stats.Searches {
				t.Errorf("%d search.done events for %d retrievals, want one each", out.events, out.stats.Searches)
			}
			// A set exports the feedback series once, at set level — not
			// as N per-shard series no session ever moves.
			for name := range col.metrics().Counters {
				if strings.HasPrefix(name, "shard") && strings.Contains(name, ".feedback.") {
					t.Errorf("dead per-shard series %q exported", name)
				}
			}
		})
	}
	if t.Failed() {
		return
	}

	ref := outcomes[0]
	if ref.stats.Searches != 6 || ref.stats.FeedbackRounds != 3 || ref.stats.FeedbackPoints == 0 ||
		ref.stats.DegradedSearches == 0 || ref.counters["search.dimension_mismatch"] != 2 {
		t.Fatalf("script did not exercise what it claims: stats %+v counters %v", ref.stats, ref.counters)
	}
	for c, col := range cols[1:] {
		got := outcomes[c+1]
		for p := range ref.pages {
			sameResults(t, fmt.Sprintf("%s page %d vs %s", col.name, p, cols[0].name), ref.pages[p], got.pages[p])
		}
		if got.stats.Searches != ref.stats.Searches || got.stats.PartialSearches+boolInt(col.ann) != ref.stats.PartialSearches ||
			got.stats.FeedbackRounds != ref.stats.FeedbackRounds || got.stats.FeedbackPoints != ref.stats.FeedbackPoints ||
			got.stats.DegradedSearches != ref.stats.DegradedSearches || got.stats.QueryPoints != ref.stats.QueryPoints {
			t.Errorf("%s: Stats %+v diverge from %s's %+v", col.name, got.stats, cols[0].name, ref.stats)
		}
		if got.events != ref.events {
			t.Errorf("%s: %d search.done events, %s emitted %d", col.name, got.events, cols[0].name, ref.events)
		}
		// Registry movement is compared sharded against unsharded on the
		// same backend.
		unsharded := outcomes[(c+1)/3*3]
		for name, want := range unsharded.counters {
			if got.counters[name] != want {
				t.Errorf("%s: registry %s = %d, unsharded moved it by %d", col.name, name, got.counters[name], want)
			}
		}
		if got.counters["feedback.rounds"] != got.stats.FeedbackRounds || got.counters["feedback.points"] != got.stats.FeedbackPoints {
			t.Errorf("%s: registry feedback counters %v disagree with Stats %+v", col.name, got.counters, got.stats)
		}
	}
}

// TestSessionStateless: a session is a query model and nothing else. On
// {Database, 2-shard Set} × {tree, ann}, the same session retrieving
// twice with no feedback in between returns the same page bit for bit
// and reports the same index work — a session that kept leaves from its
// last round seeded the second search from them, so the tree rows
// diverged; the ann rows pin that the graph route never kept any.
// Concurrent retrievals on one session agree with the serial page, and
// an ingest between two rounds changes nothing but the page.
func TestSessionStateless(t *testing.T) {
	const n, dim, k = 1200, 6, 25
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(37)), n, dim, 16, 10, 0.5)
	ctx := context.Background()
	for _, col := range parityColumns(t, vectors, n+8, 2) {
		t.Run(col.name, func(t *testing.T) {
			sess := col.newSession(vectors[5], qcluster.Options{})
			retrievals := int64(0)
			twice := func(label string) []qcluster.Result {
				t.Helper()
				var pages [2][]qcluster.Result
				var work [2]qcluster.SearchStats
				for i := range pages {
					var err error
					if pages[i], err = sess.ResultsContext(ctx, k); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					retrievals++
					work[i] = sess.Stats().LastSearch
					if col.shards > 1 && !col.ann {
						// Tree legs prune against a bound their siblings
						// tighten concurrently, so how much each visits is
						// timing; what no timing moves is compared.
						st := work[i]
						work[i] = qcluster.SearchStats{LeavesTotal: st.LeavesTotal, CacheSeedLeaves: st.CacheSeedLeaves, Workers: st.Workers}
					}
				}
				sameResults(t, label+": second retrieval vs first", pages[0], pages[1])
				if work[0] != work[1] {
					t.Errorf("%s: second retrieval reports %+v, first %+v", label, work[1], work[0])
				}
				return pages[0]
			}

			page := twice("example query")
			var marks []qcluster.Point
			for _, r := range page {
				if r.ID%16 == 5 && len(marks) < 6 { // synth.RoundRobin deals id i to cluster i%16
					marks = append(marks, qcluster.Point{ID: r.ID, Vec: vectors[r.ID], Score: 3})
				}
			}
			if err := sess.MarkRelevant(marks); err != nil {
				t.Fatal(err)
			}
			refined := twice("refined query")

			const users, each = 4, 3
			pages := make([][]qcluster.Result, users*each)
			errs := make([]error, users*each)
			var wg sync.WaitGroup
			for u := 0; u < users; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					for i := u * each; i < (u+1)*each; i++ {
						pages[i], errs[i] = sess.ResultsContext(ctx, k)
					}
				}(u)
			}
			wg.Wait()
			retrievals += users * each
			for i := range pages {
				if errs[i] != nil {
					t.Fatalf("concurrent retrieval %d: %v", i, errs[i])
				}
				sameResults(t, fmt.Sprintf("concurrent retrieval %d vs serial", i), refined, pages[i])
			}

			// A twin of the best hit lands right behind it (same distance
			// bits, larger id); everything else keeps its place.
			ids, err := col.add(ctx, [][]float64{vectors[refined[0].ID]})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]qcluster.Result{refined[0], {ID: ids[0], Dist: refined[0].Dist}}, refined[1:k-1]...)
			sameResults(t, "after ingest", want, twice("after ingest"))
			st := sess.Stats()
			if st.Searches != retrievals || st.PartialSearches != 0 || st.FeedbackRounds != 1 || sess.Query().Rounds() != 1 {
				t.Errorf("after %d retrievals, 1 round and an ingest: Stats %+v, model rounds %d", retrievals, st, sess.Query().Rounds())
			}
		})
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestShardLegsAttributedOnce: every per-shard leg of a profiled session
// retrieval reports its own index work, and the request's index work is
// attributed once — by the gather, not again by each leg's pipeline.
func TestShardLegsAttributedOnce(t *testing.T) {
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(19)), 1500, 6, 16, 10, 0.5)
	set, err := New(vectors, 2, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prof := &obs.CostProfile{}
	ctx := obs.ContextWithProfile(context.Background(), prof)
	if _, err := set.NewSession(vectors[0], qcluster.Options{}).ResultsContext(ctx, 10); err != nil {
		t.Fatal(err)
	}
	legs := prof.Shards()
	if len(legs) != 2 {
		t.Fatalf("profile has %d shard legs, want 2", len(legs))
	}
	evals := 0
	for _, leg := range legs {
		if leg.Stats.DistanceEvals == 0 {
			t.Errorf("shard %d leg reports no index work: %+v", leg.Shard, leg.Stats)
		}
		evals += leg.Stats.DistanceEvals
	}
	if prof.Stats.DistanceEvals != evals || evals == 0 {
		t.Errorf("request counts %d distance evals, its legs sum to %d — work attributed other than once", prof.Stats.DistanceEvals, evals)
	}
}
