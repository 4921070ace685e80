package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	qcluster "repro"
)

// TestShardedApproxUnavailable pins the error contract of the sharded
// approximate entry points: on a non-ANN backend, the set-level search
// and the session-level retrieval both return ErrBackendUnavailable —
// unwrapped by any "shard i:" prefixing, matching the unsharded
// surfaces.
func TestShardedApproxUnavailable(t *testing.T) {
	vectors := makeVectors(600, 6, 9)
	ctx := context.Background()
	for _, opt := range []qcluster.IndexOptions{
		{Backend: qcluster.BackendTree},
		{Backend: qcluster.BackendVAFile},
		{Backend: qcluster.BackendTree, Plan: qcluster.PlanOptions{Adaptive: true}},
	} {
		set, err := New(vectors, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		label := string(opt.Backend)
		if opt.Plan.Adaptive {
			label += "+plan"
		}
		if _, err := set.SearchApproxContext(ctx, vectors[0], 5, 0); !errors.Is(err, qcluster.ErrBackendUnavailable) {
			t.Errorf("%s SearchApproxContext err = %v, want ErrBackendUnavailable", label, err)
		}
		sess := set.NewSession(vectors[0], qcluster.Options{})
		if _, err := sess.ResultsApproxContext(ctx, 5, 0); !errors.Is(err, qcluster.ErrBackendUnavailable) {
			t.Errorf("%s Session.ResultsApproxContext err = %v, want ErrBackendUnavailable", label, err)
		}
	}
}

// TestShardedApproxEquivalence runs the sharded ANN path with an
// exhaustive efSearch (candidates = collection, so exact refinement
// degenerates to exact search) and checks the stateless approximate
// surface is bit-identical to the unsharded exact answer. The session
// surface — example and refined multipoint query alike — is a column of
// TestSessionParity.
func TestShardedApproxEquivalence(t *testing.T) {
	const n, dim, k = 1200, 6, 25
	vectors := makeVectors(n, dim, 13)
	ef := n + 1
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(vectors, 3, qcluster.IndexOptions{
		Backend: qcluster.BackendANN,
		ANN:     qcluster.ANNOptions{EfSearch: ef, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for q := 0; q < 20; q++ {
		example := vectors[(q*37)%n]
		want, _ := control.SearchByExampleContext(ctx, example, k)
		got, gerr := set.SearchApproxContext(ctx, example, k, ef)
		if gerr != nil {
			t.Fatal(gerr)
		}
		sameResults(t, fmt.Sprintf("approx example %d", q), want, got)
	}
}

// TestShardedAdaptiveEquivalence is the scatter-gather leg of the plan
// equivalence gate: a sharded set whose shards each run an adaptive
// planner (fast warm-up, aggressive probing) must stay bit-identical to
// the unsharded planner-free database across stateless queries and
// feedback rounds — per-shard route choices and the shared k-th-best
// bound composing without changing any result.
func TestShardedAdaptiveEquivalence(t *testing.T) {
	const n, dim, k = 3000, 6, 20
	vectors := makeVectors(n, dim, 17)
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(vectors, 3, qcluster.IndexOptions{
		Plan: qcluster.PlanOptions{Adaptive: true, MinObservations: 2, ProbeEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for q := 0; q < 80; q++ {
		example := vectors[(q*53)%n]
		want, _ := control.SearchByExampleContext(ctx, example, k)
		got, gerr := set.SearchByExampleContext(ctx, example, k)
		if gerr != nil {
			t.Fatal(gerr)
		}
		sameResults(t, fmt.Sprintf("adaptive sharded example %d", q), want, got)
	}

	cs := control.NewSession(vectors[1], qcluster.Options{})
	ss := set.NewSession(vectors[1], qcluster.Options{})
	for round := 0; round < 4; round++ {
		want, _ := cs.ResultsContext(ctx, k)
		got, gerr := ss.ResultsContext(ctx, k)
		if gerr != nil {
			t.Fatal(gerr)
		}
		sameResults(t, fmt.Sprintf("adaptive sharded round %d", round), want, got)
		var marked []qcluster.Point
		for i, r := range want {
			if i%2 == 0 {
				marked = append(marked, qcluster.Point{ID: r.ID, Vec: control.Vector(r.ID), Score: 1})
			}
		}
		if err := cs.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
		if err := ss.MarkRelevant(marked); err != nil {
			t.Fatal(err)
		}
	}
}
