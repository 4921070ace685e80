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
	"time"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/obs"
)

// parityColumn is one place a session can search: an unsharded
// database or a shard set.
type parityColumn struct {
	name       string
	shards     int // 0 for the database
	newSession func(example []float64, opt qcluster.Options) *qcluster.Session
	searcher   qcluster.SessionSearcher // what newSession's sessions search through, minus any wrapper
	search     func(ctx context.Context, example []float64, k int) ([]qcluster.Result, error)
	add        func(ctx context.Context, vectors [][]float64) ([]int, error)
	registry   *obs.Registry
	metrics    func() obs.Snapshot
}

// parityColumns builds the database column and then one set column per
// shard count, all on the tree.
func parityColumns(t *testing.T, vectors [][]float64, shardCounts ...int) []parityColumn {
	t.Helper()
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	cols := []parityColumn{{
		name:       "tree/database",
		newSession: db.NewSession, searcher: db, search: db.SearchByExampleContext, add: db.AddBatchContext,
		registry: db.Registry(), metrics: db.Metrics,
	}}
	for _, shards := range shardCounts {
		set, err := New(vectors, shards, qcluster.IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, parityColumn{
			name: fmt.Sprintf("tree/%d-shard set", shards), shards: shards,
			newSession: set.NewSession, searcher: set, search: set.SearchByExampleContext, add: set.AddBatchContext,
			registry: set.Registry(), metrics: set.Metrics,
		})
	}
	return cols
}

// TestSessionParity runs one seeded feedback script against every place
// a session can search — Database, 1-shard Set, 3-shard Set — and
// asserts there is one Session: the same pages bit for bit, the same
// sentinel errors, the same Stats, the same "search.done" events, and
// the same movement of the backend registry's feedback, degradation and
// page-memo counters, sharded or not.
func TestSessionParity(t *testing.T) {
	defer faultinject.Reset()
	const n, dim, k = 1200, 6, 25
	vectors := roundRobin(rand.New(rand.NewSource(31)), n, dim, 16, 10, 0.5)
	ctx := context.Background()
	cols := parityColumns(t, vectors, 1, 3)

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
			marked := map[int]bool{}
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
				for _, p := range marks {
					marked[p.ID] = true
				}
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

			// A singular full-inverse model: a search that never runs —
			// cancelled up front — and a page served from the memo are a
			// degraded search on neither the session nor the backend
			// registry; the one that runs after a fresh round is one on
			// both.
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
			page("reused page")
			if got := degraded(); got != before {
				t.Fatalf("a reused page moved the degraded count %d → %d", before, got)
			}
			var fresh []qcluster.Point
			for id := 5; len(fresh) == 0; id += 16 {
				if !marked[id] {
					fresh = append(fresh, qcluster.Point{ID: id, Vec: vectors[id], Score: 3})
				}
			}
			if err := sess.MarkRelevant(fresh); err != nil {
				t.Fatalf("fresh round: MarkRelevant: %v", err)
			}
			page("singular model")
			if got := degraded(); got != before+1 {
				t.Fatalf("one degraded retrieval moved the degraded count %d → %d", before, got)
			}
			faultinject.Clear(faultinject.SingularCovariance)

			// A context cancelled at the first tree-traversal pop, at a k
			// no page is memoized for, returns partial results.
			mid, cancelMid := context.WithCancel(ctx)
			var fired atomic.Bool
			faultinject.Set(faultinject.KNNPop, func() {
				if fired.CompareAndSwap(false, true) {
					cancelMid()
				}
			})
			_, err := sess.ResultsContext(mid, k+1)
			faultinject.Clear(faultinject.KNNPop)
			cancelMid()
			if !errors.Is(err, qcluster.ErrPartialResults) || !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-search cancel: err = %v, want ErrPartialResults and context.Canceled", err)
			}

			out.stats = sess.Stats()
			out.events = sink.Count("search.done")
			snap := col.registry.Snapshot()
			out.counters = map[string]int64{}
			for _, name := range []string{"feedback.rounds", "feedback.points", "search.degraded", "search.dimension_mismatch", "session.pages_reused"} {
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
	if ref.stats.Searches != 7 || ref.stats.FeedbackRounds != 4 || ref.stats.FeedbackPoints == 0 ||
		ref.stats.DegradedSearches == 0 || ref.counters["search.dimension_mismatch"] != 2 ||
		ref.counters["session.pages_reused"] != 1 {
		t.Fatalf("script did not exercise what it claims: stats %+v counters %v", ref.stats, ref.counters)
	}
	for c, col := range cols[1:] {
		got := outcomes[c+1]
		for p := range ref.pages {
			sameResults(t, fmt.Sprintf("%s page %d vs %s", col.name, p, cols[0].name), ref.pages[p], got.pages[p])
		}
		if got.stats.Searches != ref.stats.Searches || got.stats.PartialSearches != ref.stats.PartialSearches ||
			got.stats.FeedbackRounds != ref.stats.FeedbackRounds || got.stats.FeedbackPoints != ref.stats.FeedbackPoints ||
			got.stats.DegradedSearches != ref.stats.DegradedSearches || got.stats.QueryPoints != ref.stats.QueryPoints {
			t.Errorf("%s: Stats %+v diverge from %s's %+v", col.name, got.stats, cols[0].name, ref.stats)
		}
		if got.events != ref.events {
			t.Errorf("%s: %d search.done events, %s emitted %d", col.name, got.events, cols[0].name, ref.events)
		}
		// Registry movement is compared sharded against unsharded.
		for name, want := range ref.counters {
			if got.counters[name] != want {
				t.Errorf("%s: registry %s = %d, unsharded moved it by %d", col.name, name, got.counters[name], want)
			}
		}
		if got.counters["feedback.rounds"] != got.stats.FeedbackRounds || got.counters["feedback.points"] != got.stats.FeedbackPoints {
			t.Errorf("%s: registry feedback counters %v disagree with Stats %+v", col.name, got.counters, got.stats)
		}
	}
}

// TestSessionStateless: a session is a query model plus its last page.
// On a Database and a 2-shard Set, at every step the session's search
// returns the page, and reports the index work, of a fresh session given
// the same marks that has run no search before — a session that kept
// leaves from its last round seeded its next search from them, so the
// rows diverged. A second retrieval with nothing changed is the same page
// from the memo (one "session.pages_reused", LastSearch unchanged).
// Twelve retrievals held in flight at once right after a round that
// absorbed a new point all search, and agree with the fresh page; an
// ingest between two rounds changes nothing but the page.
func TestSessionStateless(t *testing.T) {
	const n, dim, k = 1200, 6, 25
	vectors := roundRobin(rand.New(rand.NewSource(37)), n, dim, 16, 10, 0.5)
	ctx := context.Background()
	for _, col := range parityColumns(t, vectors, 2) {
		t.Run(col.name, func(t *testing.T) {
			held := &heldSearcher{SessionSearcher: col.searcher}
			sess := qcluster.NewSessionOver(held, vectors[5], qcluster.Options{})
			var rounds [][]qcluster.Point // the marks sess was given, round by round
			mark := func(marks []qcluster.Point) {
				t.Helper()
				if err := sess.MarkRelevant(marks); err != nil {
					t.Fatal(err)
				}
				rounds = append(rounds, marks)
			}
			retrievals := int64(0)
			reused := func() int64 { return col.registry.Snapshot().Counters["session.pages_reused"] }
			work := func(s *qcluster.Session) qcluster.SearchStats {
				st := s.Stats().LastSearch
				if col.shards > 1 {
					// Tree legs prune against a bound their siblings
					// tighten concurrently, so how much each visits is
					// timing; what no timing moves is compared.
					st = qcluster.SearchStats{LeavesTotal: st.LeavesTotal, CacheSeedLeaves: st.CacheSeedLeaves, Workers: st.Workers}
				}
				return st
			}
			// fresh is the page and index work of a session that has run
			// no search before, given the marks sess was given.
			fresh := func(label string) ([]qcluster.Result, qcluster.SearchStats) {
				t.Helper()
				f := col.newSession(vectors[5], qcluster.Options{})
				for _, marks := range rounds {
					if err := f.MarkRelevant(marks); err != nil {
						t.Fatal(err)
					}
				}
				res, err := f.ResultsContext(ctx, k)
				if err != nil {
					t.Fatalf("%s: fresh session: %v", label, err)
				}
				return res, work(f)
			}
			twice := func(label string) []qcluster.Result {
				t.Helper()
				before := reused()
				var pages [2][]qcluster.Result
				var stats [2]qcluster.SearchStats
				for i := range pages {
					var err error
					if pages[i], err = sess.ResultsContext(ctx, k); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					stats[i] = work(sess)
				}
				retrievals += 2
				if got := reused() - before; got != 1 {
					t.Errorf("%s: %d pages reused over two retrievals, want 1", label, got)
				}
				sameResults(t, label+": second retrieval vs first", pages[0], pages[1])
				if stats[1] != stats[0] {
					t.Errorf("%s: the reused page moved LastSearch %+v → %+v", label, stats[0], stats[1])
				}
				want, wantWork := fresh(label)
				sameResults(t, label+": session vs fresh session", want, pages[0])
				if stats[0] != wantWork {
					t.Errorf("%s: the session's search reports %+v, a fresh session's %+v", label, stats[0], wantWork)
				}
				return pages[0]
			}

			page := twice("example query")
			marked := map[int]bool{}
			pick := func(page []qcluster.Result, max int) []qcluster.Point {
				var marks []qcluster.Point
				for _, r := range page {
					if r.ID%16 == 5 && !marked[r.ID] && len(marks) < max { // synth.RoundRobin deals id i to cluster i%16
						marks = append(marks, qcluster.Point{ID: r.ID, Vec: vectors[r.ID], Score: 3})
						marked[r.ID] = true
					}
				}
				if len(marks) == 0 {
					t.Fatal("the page holds no unmarked id of the example's cluster")
				}
				return marks
			}
			mark(pick(page, 6))
			refined := twice("refined query")

			// A round that absorbs a new point, then twelve retrievals
			// held inside SearchMetric until all have arrived: none can
			// find a page in the memo, so all twelve search at once.
			mark(pick(refined, 1))
			if got := sess.Query().Rounds(); got != 2 {
				t.Fatalf("model rounds = %d after two rounds of new points, want 2", got)
			}
			want, wantWork := fresh("second round")
			const users = 12
			pages := make([][]qcluster.Result, users)
			errs := make([]error, users)
			before := reused()
			held.hold(users)
			var wg sync.WaitGroup
			for u := 0; u < users; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					pages[u], errs[u] = sess.ResultsContext(ctx, k)
				}(u)
			}
			held.arrived.Wait()
			close(held.release)
			wg.Wait()
			held.hold(0)
			retrievals += users
			for u := range pages {
				if errs[u] != nil {
					t.Fatalf("concurrent retrieval %d: %v", u, errs[u])
				}
				sameResults(t, fmt.Sprintf("concurrent retrieval %d vs fresh session", u), want, pages[u])
			}
			if got := reused() - before; got != 0 {
				t.Errorf("%d of %d retrievals held in flight together were served from the memo, want 0", got, users)
			}
			if got := work(sess); got != wantWork {
				t.Errorf("concurrent searches report %+v, a fresh session's %+v", got, wantWork)
			}
			before = reused()
			after, err := sess.ResultsContext(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			retrievals++
			sameResults(t, "retrieval after the concurrent ones", want, after)
			if got := reused() - before; got != 1 {
				t.Errorf("the retrieval after the concurrent ones reused %d pages, want 1", got)
			}

			// A twin of the best hit lands right behind it (same distance
			// bits, larger id); everything else keeps its place.
			ids, err := col.add(ctx, [][]float64{vectors[want[0].ID]})
			if err != nil {
				t.Fatal(err)
			}
			want = append([]qcluster.Result{want[0], {ID: ids[0], Dist: want[0].Dist}}, want[1:k-1]...)
			sameResults(t, "after ingest", want, twice("after ingest"))
			st := sess.Stats()
			if st.Searches != retrievals || st.PartialSearches != 0 || st.FeedbackRounds != 2 || sess.Query().Rounds() != 2 {
				t.Errorf("after %d retrievals, 2 rounds and an ingest: Stats %+v, model rounds %d", retrievals, st, sess.Query().Rounds())
			}
		})
	}
}

// heldSearcher passes every call through to the SessionSearcher it
// wraps, except that while hold(n) is in force each SearchMetric checks
// in on arrived and waits for release — so a test can keep n searches
// of one session in flight at once.
type heldSearcher struct {
	qcluster.SessionSearcher
	arrived sync.WaitGroup
	release chan struct{} // nil: pass straight through
}

// hold arms the next n SearchMetric calls, or disarms with n = 0. Call
// it only while no search is running.
func (h *heldSearcher) hold(n int) {
	h.release = nil
	if n > 0 {
		h.arrived.Add(n)
		h.release = make(chan struct{})
	}
}

func (h *heldSearcher) SearchMetric(ctx context.Context, m distance.Metric, k int) ([]qcluster.Result, index.SearchStats, time.Duration, error) {
	if h.release != nil {
		h.arrived.Done()
		<-h.release
	}
	return h.SessionSearcher.SearchMetric(ctx, m, k)
}

// TestShardLegsAttributedOnce: every per-shard leg of a profiled session
// retrieval reports its own index work, and the request's index work is
// attributed once — by the gather, not again by each leg's pipeline.
func TestShardLegsAttributedOnce(t *testing.T) {
	vectors := roundRobin(rand.New(rand.NewSource(19)), 1500, 6, 16, 10, 0.5)
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
