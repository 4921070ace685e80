package qcluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// adaptiveOptions is a fast-warming planner configuration for tests:
// models predict after 2 observations and every 2nd decision probes a
// cold route.
func adaptiveOptions(backend IndexBackend) IndexOptions {
	return IndexOptions{
		Backend: backend,
		Plan:    PlanOptions{Adaptive: true, MinObservations: 2, ProbeEvery: 2},
	}
}

// TestPlanColdStartIsStatic pins the planner's cold-start contract at
// the public surface: the first search of a fresh adaptive database
// reports the static route with no adaptive flag and no prediction —
// indistinguishable from a planner-free database.
func TestPlanColdStartIsStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	vectors, _ := buildVectors(rng)
	// Default ProbeEvery (16): the first decision is never a probe.
	db := buildDB(t, vectors, IndexOptions{Plan: PlanOptions{Adaptive: true}})
	s := db.NewSession(db.Vector(0), Options{})
	res := s.Results(10)
	if len(res) != 10 {
		t.Fatalf("results = %d", len(res))
	}
	last := s.Stats().LastSearch
	if last.PlanRoute != "tree" || last.PlanAdaptive {
		t.Fatalf("cold search stats = route %q adaptive %v, want static tree", last.PlanRoute, last.PlanAdaptive)
	}
	if last.PlanPredictedSeconds != 0 {
		t.Fatalf("cold search carries a prediction: %v", last.PlanPredictedSeconds)
	}

	// And the results are bit-identical to a planner-free database.
	plain := buildDB(t, vectors, IndexOptions{})
	identicalResults(t, res, plain.NewSession(plain.Vector(0), Options{}).Results(10), "cold adaptive vs plain")
}

// TestPlanAdaptiveBitIdenticalExact is the equivalence gate at the
// library level: an adaptive database must return bit-identical results
// to both static exact backends on every search — plain, refined, and
// across feedback rounds — even after its models warm up and it starts
// routing adaptively.
func TestPlanAdaptiveBitIdenticalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vectors, labels := buildVectors(rng)
	adaptive := buildDB(t, vectors, adaptiveOptions(BackendTree))
	tree := buildDB(t, vectors, IndexOptions{})
	va := buildDB(t, vectors, IndexOptions{Backend: BackendVAFile})

	// Stateless sweep: enough queries to warm both exact routes through
	// probing and flip the planner adaptive.
	for trial := 0; trial < 60; trial++ {
		q := vectors[rng.Intn(len(vectors))]
		k := 1 + rng.Intn(30)
		res := adaptive.SearchByExample(q, k)
		identicalResults(t, res, tree.SearchByExample(q, k), "adaptive vs tree")
		identicalResults(t, res, va.SearchByExample(q, k), "adaptive vs vafile")
	}

	// Feedback loop: the multipoint refined query must stay identical too.
	sa := adaptive.NewSession(adaptive.Vector(0), Options{})
	st := tree.NewSession(tree.Vector(0), Options{})
	for round := 0; round < 4; round++ {
		ra := sa.Results(40)
		identicalResults(t, ra, st.Results(40), "adaptive session vs tree session")
		var marked []Point
		for _, r := range ra {
			if labels[r.ID] == 0 {
				marked = append(marked, Point{ID: r.ID, Vec: tree.Vector(r.ID), Score: 2})
			}
		}
		if err := sa.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
		if err := st.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
	}

	// The planner must actually have made model-driven decisions by now —
	// otherwise this test proved nothing about adaptive routing.
	snap := adaptive.Metrics()
	decisions := snap.Counters["plan.decisions"]
	static := snap.Counters["plan.static_fallback"]
	probes := snap.Counters["plan.probes"]
	if decisions == 0 {
		t.Fatal("no plan decisions recorded")
	}
	if adaptiveN := decisions - static - probes; adaptiveN <= 0 {
		t.Fatalf("planner never went adaptive: decisions=%d static=%d probes=%d", decisions, static, probes)
	}
	if probes == 0 {
		t.Fatal("no probes recorded despite ProbeEvery=2")
	}
}

// TestPlanStatsSurfaceWarm checks that once warm, the plan fields show
// up end to end: SearchStats carries the chosen route, the adaptive
// flag and a prediction, and the plan.* metrics move.
func TestPlanStatsSurfaceWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	vectors, _ := buildVectors(rng)
	db := buildDB(t, vectors, adaptiveOptions(BackendTree))
	s := db.NewSession(db.Vector(1), Options{})
	var sawAdaptive bool
	for i := 0; i < 40; i++ {
		s.Results(15)
		last := s.Stats().LastSearch
		if last.PlanRoute == "" {
			t.Fatalf("search %d: no plan route in stats", i)
		}
		if last.PlanAdaptive {
			sawAdaptive = true
			if last.PlanPredictedSeconds <= 0 {
				t.Fatalf("adaptive search without prediction: %+v", last)
			}
		}
	}
	if !sawAdaptive {
		t.Fatal("40 searches never produced an adaptive plan (MinObservations=2, ProbeEvery=2)")
	}
	snap := db.Metrics()
	if snap.Counters["plan.decisions"] == 0 {
		t.Fatal("plan.decisions never incremented")
	}
}

// TestPlanConcurrentFeedback runs adaptive planning under concurrent
// sessions whose feedback rounds grow m (shifting model keys) — the
// -race exercise for planner state — and checks every session's results
// stay bit-identical to an isolated static-backend session fed the same
// judgements.
func TestPlanConcurrentFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vectors, labels := buildVectors(rng)
	adaptive := buildDB(t, vectors, adaptiveOptions(BackendTree))
	tree := buildDB(t, vectors, IndexOptions{})

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := g % adaptive.Len()
			sa := adaptive.NewSession(adaptive.Vector(seed), Options{})
			st := tree.NewSession(tree.Vector(seed), Options{})
			for round := 0; round < 5; round++ {
				ra := sa.Results(25)
				rt := st.Results(25)
				if len(ra) != len(rt) {
					errs <- errors.New("result length diverged")
					return
				}
				for i := range ra {
					if ra[i] != rt[i] {
						errs <- errors.New("adaptive session diverged from static")
						return
					}
				}
				var marked []Point
				for _, r := range ra {
					if labels[r.ID] == g%3 {
						marked = append(marked, Point{ID: r.ID, Vec: tree.Vector(r.ID), Score: 1})
					}
				}
				if len(marked) == 0 {
					continue
				}
				if err := sa.MarkRelevant(marked); err != nil {
					errs <- err
					return
				}
				if err := st.MarkRelevant(marked); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestApproxEntryPointsRequireANN is the cross-surface contract table:
// every approximate entry point — stateless, session, and the sharded
// per-shard leg — returns ErrBackendUnavailable on both exact backends
// and works on the ANN backend. An adaptive planner must not change
// that: the ANN route stays opt-in per call.
func TestApproxEntryPointsRequireANN(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	vectors, _ := buildVectors(rng)
	ctx := context.Background()

	entryPoints := []struct {
		name string
		call func(db *Database) error
	}{
		{"SearchApproxContext", func(db *Database) error {
			_, err := db.SearchApproxContext(ctx, db.Vector(0), 5, 0)
			return err
		}},
		{"Session.ResultsApproxContext", func(db *Database) error {
			_, err := db.NewSession(db.Vector(0), Options{}).ResultsApproxContext(ctx, 5, 0)
			return err
		}},
		{"ShardSearcher.Search(approx)", func(db *Database) error {
			_, _, err := db.NewShardSearcher(false).Search(ctx, EuclideanMetric(db.Vector(0)), 5, true, 0, nil)
			return err
		}},
	}

	for _, opt := range []IndexOptions{
		{Backend: BackendTree},
		{Backend: BackendVAFile},
		adaptiveOptions(BackendTree), // a planner does not unlock approx either
	} {
		db := buildDB(t, vectors, opt)
		for _, ep := range entryPoints {
			if err := ep.call(db); !errors.Is(err, ErrBackendUnavailable) {
				t.Errorf("backend %q %s: err = %v, want ErrBackendUnavailable",
					db.IndexInfo().Backend, ep.name, err)
			}
		}
	}

	annDB := buildDB(t, vectors, IndexOptions{Backend: BackendANN, ANN: ANNOptions{Seed: 2}})
	for _, ep := range entryPoints {
		if err := ep.call(annDB); err != nil {
			t.Errorf("ann backend %s: %v", ep.name, err)
		}
	}
	// The error-free session form: nil where the Context form errors.
	if res := annDB.NewSession(annDB.Vector(0), Options{}).ResultsApprox(5, 0); len(res) != 5 {
		t.Errorf("ann backend Session.ResultsApprox: %d results, want 5", len(res))
	}
	tree := buildDB(t, vectors, IndexOptions{})
	if res := tree.NewSession(tree.Vector(0), Options{}).ResultsApprox(5, 0); res != nil {
		t.Errorf("tree backend Session.ResultsApprox: %d results, want nil", len(res))
	}
}
