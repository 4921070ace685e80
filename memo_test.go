package qcluster_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	qcluster "repro"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/shard"
	"repro/internal/synth"
)

// memoStore is one place a session can search, with its write path.
type memoStore struct {
	name       string
	newSession func(example []float64, opt qcluster.Options) *qcluster.Session
	add        func(ctx context.Context, vectors [][]float64) ([]int, error)
	registry   *qcluster.Registry
}

// memoStores builds a Database, a 2-shard Set and a DurableDatabase over
// the same vectors.
func memoStores(t *testing.T, vectors [][]float64) []memoStore {
	t.Helper()
	db, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.New(vectors, 2, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := qcluster.OpenDatabase(t.TempDir(), qcluster.DurableOptions{Seed: vectors})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		set.Close()
		dd.Close()
	})
	return []memoStore{
		{"database", db.NewSession, db.AddBatchContext, db.Registry()},
		{"2-shard set", set.NewSession, set.AddBatchContext, set.Registry()},
		{"durable database", dd.NewSession, dd.AddBatchContext, dd.Registry()},
	}
}

// scanPage is the memo-free answer: the metric the session's model
// builds now, evaluated by its scalar Eval over every stored vector, the
// k smallest by (dist, id).
func scanPage(sess *qcluster.Session, example []float64, all [][]float64, k int) []qcluster.Result {
	m := qcluster.EuclideanMetric(example)
	if sess.Query().Ready() {
		m = sess.Query().Metric()
	}
	page := make([]qcluster.Result, len(all))
	for id, v := range all {
		page[id] = qcluster.Result{ID: id, Dist: m.Eval(linalg.Vector(v))}
	}
	slices.SortFunc(page, func(a, b qcluster.Result) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return page[:min(k, len(page))]
}

func samePage(a, b []qcluster.Result) bool {
	return slices.EqualFunc(a, b, func(x, y qcluster.Result) bool {
		return x.ID == y.ID && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
	})
}

// TestSessionPageMemoTransparent plays seeded interleavings of fresh,
// all-seen and zero-score feedback, a direct Query.Feedback, inserts
// between rounds and beside a retrieval, changes of k and cancelled
// retrievals against a session on a Database, a 2-shard Set and a
// DurableDatabase. Every page must be the memo-free recomputation's bit
// for bit, and "session.pages_reused" must move on exactly the
// retrievals whose (model version, k, collection version) key matches
// the last complete page's.
func TestSessionPageMemoTransparent(t *testing.T) {
	defer faultinject.Reset()
	const cats, perCat, dim = 12, 20, 4
	for seed := int64(1); seed <= 4; seed++ {
		vectors, labels := synth.Mixture[[]float64](rand.New(rand.NewSource(seed)), cats, perCat, dim, 4)
		for _, st := range memoStores(t, vectors) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, st.name), func(t *testing.T) {
				playMemoScript(t, st, rand.New(rand.NewSource(seed)), slices.Clone(vectors), slices.Clone(labels))
			})
		}
	}
	t.Run("set batch in flight", testSetBatchInFlight)
}

func playMemoScript(t *testing.T, st memoStore, rng *rand.Rand, all [][]float64, labels []int) {
	ctx := context.Background()
	q := rng.Intn(len(all))
	example, cat := all[q], labels[q]
	opt := qcluster.Options{Scheme: qcluster.Scheme(rng.Intn(2))}
	sess := st.newSession(example, opt)
	k := 12
	seen := map[int]bool{}
	reused := func() int64 { return st.registry.Snapshot().Counters["session.pages_reused"] }

	type pageKey struct{ model, k, collection int }
	memo, known := pageKey{k: -1}, true // no page yet: no key matches
	hits := 0

	// check retrieves once, compares the page with the recomputation and
	// the reuse counter with the key rule, and records the new memo key.
	check := func(label string) {
		t.Helper()
		key := pageKey{sess.Query().Rounds(), k, len(all)}
		before := reused()
		page, err := sess.ResultsContext(ctx, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := reused() - before
		if known && got != int64(boolInt(memo == key)) {
			t.Fatalf("%s: key %+v after %+v moved pages_reused by %d", label, key, memo, got)
		}
		hits += int(got)
		memo, known = key, true
		if want := scanPage(sess, example, all, k); !samePage(page, want) {
			t.Fatalf("%s: page %v, memo-free recomputation %v", label, page, want)
		}
	}
	// marks draws up to n ids of the query's category, seen or unseen.
	marks := func(n int, wantSeen bool, score float64) []qcluster.Point {
		var out []qcluster.Point
		for _, id := range rng.Perm(len(all)) {
			if len(out) < n && labels[id] == cat && seen[id] == wantSeen {
				out = append(out, qcluster.Point{ID: id, Vec: all[id], Score: score})
			}
		}
		return out
	}
	absorb := func(ps []qcluster.Point) {
		for _, p := range ps {
			seen[p.ID] = true
		}
	}
	// near draws n vectors around members of the query's category, so an
	// insert reaches the page.
	near := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			base := all[marksOrQuery(rng, labels, cat, q)]
			v := make([]float64, len(base))
			for d := range v {
				v[d] = base[d] + 0.3*rng.NormFloat64()
			}
			out[i] = v
		}
		return out
	}

	check("example query")
	check("example query again")
	for step := 0; step < 24; step++ {
		label := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(9); op {
		case 0: // fresh feedback
			ps := marks(1+rng.Intn(4), false, 3)
			if err := sess.MarkRelevant(ps); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			absorb(ps)
			check(label + ": fresh feedback")
		case 1: // all-seen feedback
			if err := sess.MarkRelevant(marks(3, true, 3)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label + ": all-seen feedback")
		case 2: // zero-score feedback
			if err := sess.MarkRelevant(marks(3, false, 0)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label + ": zero-score feedback")
		case 3: // the model fed directly, not through MarkRelevant
			ps := marks(1+rng.Intn(3), false, 1)
			if err := sess.Query().Feedback(ps); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			absorb(ps)
			check(label + ": direct Query.Feedback")
		case 4: // an insert between rounds
			vs := near(1 + rng.Intn(3))
			if _, err := st.add(ctx, vs); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for range vs {
				labels = append(labels, cat)
			}
			all = append(all, vs...)
			check(label + ": after an insert")
		case 5: // a change of k
			k = []int{1, 7, 12, 20}[rng.Intn(4)]
			check(label + ": k changed")
		case 6: // cancelled retrievals at a new k: up front, then at the first pop
			for old := k; k == old; {
				k = []int{1, 7, 12, 20}[rng.Intn(4)]
			}
			done, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := sess.ResultsContext(done, k); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: pre-cancelled: err = %v", label, err)
			}
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
			if !errors.Is(err, qcluster.ErrPartialResults) {
				t.Fatalf("%s: mid-search cancel: err = %v, want ErrPartialResults", label, err)
			}
			check(label + ": after cancelled retrievals")
		case 7: // an insert beside a retrieval
			vs := near(1 + rng.Intn(3))
			before := scanPage(sess, example, all, k)
			var wg sync.WaitGroup
			var addErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, addErr = st.add(ctx, vs)
			}()
			page, err := sess.ResultsContext(ctx, k)
			wg.Wait()
			if err != nil || addErr != nil {
				t.Fatalf("%s: retrieval %v, insert %v", label, err, addErr)
			}
			for range vs {
				labels = append(labels, cat)
			}
			all = append(all, vs...)
			if !samePage(page, before) && !samePage(page, scanPage(sess, example, all, k)) {
				t.Fatalf("%s: page beside an insert is neither the before nor the after page", label)
			}
			known = false // which collection the retrieval read is timing
			check(label + ": after an insert beside a retrieval")
		case 8:
			check(label + ": repeated")
		}
	}
	if hits == 0 {
		t.Fatal("the script served no page from the memo")
	}
}

// marksOrQuery picks a member of category cat, or the query itself.
func marksOrQuery(rng *rand.Rand, labels []int, cat, q int) int {
	for tries := 0; tries < 64; tries++ {
		if id := rng.Intn(len(labels)); labels[id] == cat {
			return id
		}
	}
	return q
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// testSetBatchInFlight: a shard set assigns a batch's global ids before
// its cross-shard commit. A page computed while the commit is held
// before its fsync is the pre-batch page and is reused as such; once the
// batch lands, the next retrieval searches again and finds it.
func testSetBatchInFlight(t *testing.T) {
	defer faultinject.Reset()
	vectors, _ := synth.Mixture[[]float64](rand.New(rand.NewSource(11)), 10, 20, 4, 4)
	set, err := shard.Open(t.TempDir(), 2, qcluster.DurableOptions{Seed: vectors})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	const k = 10
	ctx := context.Background()
	example := vectors[3]
	sess := set.NewSession(example, qcluster.Options{})
	reused := func() int64 { return set.Registry().Snapshot().Counters["session.pages_reused"] }
	before := sess.Results(k)

	// Eight copies of the example: both shards receive some, and every
	// copy ranks at distance 0, ahead of the whole pre-batch page.
	batch := make([][]float64, 8)
	for i := range batch {
		batch[i] = slices.Clone(example)
	}
	reached, release := make(chan struct{}, 1), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failure below must not leave Close waiting on the held commit
	faultinject.Set(faultinject.WALPreFsync, func() {
		select {
		case reached <- struct{}{}:
		default:
		}
		<-release
	})
	landed := make(chan error, 1)
	go func() {
		_, err := set.AddBatchContext(ctx, batch)
		landed <- err
	}()
	<-reached
	if set.Len() != len(vectors)+len(batch) {
		t.Fatalf("Len %d while the batch is in flight, want the assigned %d", set.Len(), len(vectors)+len(batch))
	}
	r0 := reused()
	held, err := sess.ResultsContext(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if !samePage(held, before) || reused()-r0 != 1 {
		t.Fatalf("in flight: page %v (reused %d), want the pre-batch page %v reused", held, reused()-r0, before)
	}
	unblock()
	if err := <-landed; err != nil {
		t.Fatal(err)
	}
	faultinject.Clear(faultinject.WALPreFsync)

	r1 := reused()
	after, err := sess.ResultsContext(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	all := append(slices.Clone(vectors), batch...)
	if want := scanPage(sess, example, all, k); !samePage(after, want) || reused() != r1 {
		t.Fatalf("after the batch landed: page %v (reused %d), want %v searched", after, reused()-r1, want)
	}
	copies := 0
	for _, r := range after {
		if r.ID >= len(vectors) {
			copies++
		}
	}
	if copies != len(batch) {
		t.Fatalf("after the batch landed the page holds %d of the %d copies: %v", copies, len(batch), after)
	}
}
