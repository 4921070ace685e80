package qcluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/synth"
)

// An already-cancelled context returns promptly with context.Canceled
// (wrapped), no results and no panic — on every context entry point.
func TestSearchContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 500, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := db.SearchByExampleContext(ctx, db.Vector(0), 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchByExampleContext err = %v, want context.Canceled", err)
	}
	s := db.NewSession(db.Vector(0), Options{})
	if _, err := s.ResultsContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("ResultsContext err = %v, want context.Canceled", err)
	}
	q := NewQuery(Options{})
	if err := q.Feedback([]Point{{ID: 0, Vec: db.Vector(0), Score: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SearchContext(ctx, q, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext err = %v, want context.Canceled", err)
	}
	// A pre-cancelled search must not be tagged as partial results.
	if _, err := db.SearchContext(ctx, q, 10); errors.Is(err, ErrPartialResults) {
		t.Fatal("pre-cancelled search must not claim partial results")
	}
}

// A deadline that expires mid-traversal yields best-effort partial
// results tagged ErrPartialResults and wrapping the context error. The
// KNNPop fault-injection hook gives the test deterministic timing.
func TestSearchContextMidSearchDeadline(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(11))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 3000, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Options{})
	if err := q.Feedback([]Point{
		{ID: 0, Vec: db.Vector(0), Score: 3},
		{ID: 1, Vec: db.Vector(1), Score: 3},
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	pops := 0
	faultinject.Set(faultinject.KNNPop, func() {
		pops++
		if pops == 12 { // let a few leaves be scored first
			time.Sleep(20 * time.Millisecond) // outlive the deadline mid-search
		}
	})
	res, err := db.SearchContext(ctx, q, 25)
	if !errors.Is(err, ErrPartialResults) {
		t.Fatalf("err = %v, want ErrPartialResults", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must also wrap context.DeadlineExceeded", err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("partial results must stay sorted")
		}
	}
}

// A search the tree cannot prune finishes as a sweep of the store, and
// says so wherever search cost is reported: the session's last-search
// stats, the request's cost profile, the "search.swept" counter and a
// prune ratio of 0. Interrupted mid-sweep (the KNNSweepChunk hook gives
// deterministic timing) it answers like an interrupted traversal: the
// best found so far, sorted, tagged ErrPartialResults and wrapping the
// context error.
func TestSweptSearchReportedAndInterruptible(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(14))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 4000, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	const k = 25
	sess := db.NewSession(db.Vector(0), Options{})
	prof := &obs.CostProfile{}
	if _, err := sess.ResultsContext(obs.ContextWithProfile(context.Background(), prof), k); err != nil {
		t.Fatal(err)
	}
	last := sess.Stats().LastSearch
	if last.Swept != 1 || last.LeavesVisited != last.LeavesTotal || last.PruneRatio() != 0 || last.DistanceEvals <= db.Len() {
		t.Fatalf("12-d search did not report a sweep: %+v", last)
	}
	if prof.Stats.Swept != 1 {
		t.Fatalf("cost profile lost the sweep: %+v", prof.Stats)
	}
	if got := db.Metrics().Counters["search.swept"]; got != 1 {
		t.Fatalf("search.swept = %d after one swept search", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chunks atomic.Int32
	faultinject.Set(faultinject.KNNSweepChunk, func() {
		if chunks.Add(1) == 3 {
			cancel()
		}
	})
	res, err := db.SearchByExampleContext(ctx, db.Vector(0), k)
	if !errors.Is(err, ErrPartialResults) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrPartialResults wrapping context.Canceled", err)
	}
	if len(res) != k {
		t.Fatalf("%d partial results, want the probe phase's %d", len(res), k)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("partial results must stay sorted")
		}
	}
}

// A FullInverse query whose single cluster has fewer points than
// dimensions (singular covariance) must complete retrieval via the
// regularized fallback and report the degradation through Health.
func TestFullInverseSingularCovarianceDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dim := 8
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 300, dim, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Options{Scheme: FullInverse})
	// Three distinct nearby points in 8-D: scatter rank <= 2, singular.
	base := db.Vector(0)
	var pts []Point
	for i := 0; i < 3; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = base[d] + 0.01*float64(i)*float64(d+1)
		}
		pts = append(pts, Point{ID: i, Vec: v, Score: 3})
	}
	if err := q.Feedback(pts); err != nil {
		t.Fatal(err)
	}
	res, err := db.SearchContext(context.Background(), q, 20)
	if err != nil {
		t.Fatalf("degraded search must still succeed: %v", err)
	}
	if len(res) != 20 {
		t.Fatalf("got %d results", len(res))
	}
	h := q.Health()
	if !h.Degraded() || h.DegradedClusters == 0 {
		t.Fatalf("health = %+v, want degraded", h)
	}
	if h.Clusters == 0 {
		t.Fatalf("health must report the cluster count: %+v", h)
	}
}

// The SingularCovariance hook forces the ridge path even for a
// well-conditioned cluster, and the degradation shows up in Health.
func TestForcedSingularCovariance(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(13))
	dim := 3
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 200, dim, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession(db.Vector(0), Options{Scheme: FullInverse})
	var pts []Point
	for id := 0; id < 30; id++ { // plenty of points: normally healthy
		pts = append(pts, Point{ID: id, Vec: db.Vector(id), Score: 3})
	}
	if err := s.MarkRelevant(pts); err != nil {
		t.Fatal(err)
	}
	if res := s.Results(10); len(res) != 10 {
		t.Fatalf("warmup results = %d", len(res))
	}
	if s.Health().Degraded() {
		t.Fatalf("30-point clusters in 3-D should be healthy: %+v", s.Health())
	}
	faultinject.Set(faultinject.SingularCovariance, nil)
	if res := s.Results(10); len(res) != 10 {
		t.Fatalf("forced-singular results = %d", len(res))
	}
	if !s.Health().Degraded() {
		t.Fatalf("forced singular covariance must degrade health: %+v", s.Health())
	}
}

// The panic barrier converts internal panics crossing the public API
// into typed *InternalError values instead of crashing.
func TestPanicBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 100, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A query whose dimensionality exceeds the database's: evaluating its
	// metric against stored vectors indexes out of range internally.
	q := NewQuery(Options{})
	if err := q.Feedback([]Point{
		{ID: 0, Vec: []float64{1, 2, 3, 4, 5}, Score: 3},
		{ID: 1, Vec: []float64{1, 2, 3, 4, 6}, Score: 3},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = db.SearchContext(context.Background(), q, 5)
	if err == nil {
		t.Fatal("mismatched-dimension search must error")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Op != "SearchContext" {
		t.Fatalf("err = %#v, want *InternalError with Op=SearchContext", err)
	}
	// The database must remain usable after the trapped panic.
	if res := db.SearchByExample(db.Vector(0), 5); len(res) != 5 {
		t.Fatalf("database unusable after trapped panic: %d results", len(res))
	}
}

// SearchContext on a query with no feedback returns ErrNotReady.
func TestSearchContextNotReady(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 50, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SearchContext(context.Background(), NewQuery(Options{}), 5); !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
}

// Non-finite feedback vectors are rejected with a descriptive error and
// absorb nothing — through both Query.Feedback and Session.MarkRelevant.
func TestFeedbackRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 50, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{
		{1, math.NaN(), 0},
		{math.Inf(1), 0, 0},
		{0, 0, math.Inf(-1)},
	}
	for _, v := range bad {
		q := NewQuery(Options{})
		if err := q.Feedback([]Point{{ID: 0, Vec: v, Score: 3}}); err == nil {
			t.Errorf("Feedback accepted non-finite vector %v", v)
		} else if q.Ready() {
			t.Errorf("rejected feedback %v still mutated the query", v)
		}
		s := db.NewSession(db.Vector(0), Options{})
		if err := s.MarkRelevant([]Point{{ID: 0, Vec: v, Score: 3}}); err == nil {
			t.Errorf("MarkRelevant accepted non-finite vector %v", v)
		}
	}
	// A zero-score non-finite point is ignored, matching the existing
	// zero-score semantics, and must not fail the batch.
	q := NewQuery(Options{})
	if err := q.Feedback([]Point{
		{ID: 0, Vec: []float64{math.NaN(), 0, 0}, Score: 0},
		{ID: 1, Vec: []float64{1, 2, 3}, Score: 3},
	}); err != nil {
		t.Errorf("zero-score non-finite point must be ignored: %v", err)
	}
}

// identicalBatch returns n copies of one constant vector — the most
// degenerate feedback batch possible: zero scatter in every dimension,
// guaranteeing a singular covariance for any dim >= 1.
func identicalBatch(dim, n int, value float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for d := range v {
			v[d] = value
		}
		out[i] = v
	}
	return out
}

// collinearBatch returns n points spaced along a single line in dim-D
// space: the scatter has rank 1, so the covariance is singular whenever
// dim > 1 regardless of how many points are supplied.
func collinearBatch(dim, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for d := range v {
			v[d] = float64(i+1) * float64(d+1)
		}
		out[i] = v
	}
	return out
}

func TestDegenerateBatches(t *testing.T) {
	b := identicalBatch(4, 3, 7.5)
	if len(b) != 3 || len(b[0]) != 4 || b[2][3] != 7.5 {
		t.Fatalf("identicalBatch shape wrong: %v", b)
	}
	c := collinearBatch(3, 5)
	if len(c) != 5 || len(c[0]) != 3 {
		t.Fatalf("collinearBatch shape wrong: %v", c)
	}
	// Every point must be a scalar multiple of the first.
	for i := 1; i < len(c); i++ {
		ratio := c[i][0] / c[0][0]
		for d := range c[i] {
			if c[i][d] != ratio*c[0][d] {
				t.Fatalf("point %d not collinear with point 0", i)
			}
		}
	}
}

// Degenerate feedback batches (identical and collinear points — singular
// covariance by construction) must flow through the whole pipeline
// without panicking.
func TestDegenerateFeedbackBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 200, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][][]float64{
		"identical": identicalBatch(4, 6, 0.5),
		"collinear": collinearBatch(4, 6),
	} {
		for _, scheme := range []Scheme{Diagonal, FullInverse} {
			q := NewQuery(Options{Scheme: scheme})
			var pts []Point
			for i, v := range batch {
				pts = append(pts, Point{ID: i, Vec: v, Score: 3})
			}
			if err := q.Feedback(pts); err != nil {
				t.Fatalf("%s/%v: %v", name, scheme, err)
			}
			res, err := db.SearchContext(context.Background(), q, 10)
			if err != nil || len(res) != 10 {
				t.Fatalf("%s/%v: res=%d err=%v", name, scheme, len(res), err)
			}
			// Collinear points have nonzero variance in every dimension,
			// so the diagonal scheme handles them without any fallback —
			// the paper's reason for preferring it. Every other combination
			// must report the degradation.
			if name == "collinear" && scheme == Diagonal {
				continue
			}
			if !q.Health().Degraded() {
				t.Errorf("%s/%v: degenerate batch should degrade health", name, scheme)
			}
		}
	}
}
