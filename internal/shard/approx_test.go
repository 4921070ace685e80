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
	set, err := New(vectors, 3, qcluster.IndexOptions{Backend: qcluster.BackendTree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SearchApproxContext(ctx, vectors[0], 5, 0); !errors.Is(err, qcluster.ErrBackendUnavailable) {
		t.Errorf("SearchApproxContext err = %v, want ErrBackendUnavailable", err)
	}
	sess := set.NewSession(vectors[0], qcluster.Options{})
	if _, err := sess.ResultsApproxContext(ctx, 5, 0); !errors.Is(err, qcluster.ErrBackendUnavailable) {
		t.Errorf("Session.ResultsApproxContext err = %v, want ErrBackendUnavailable", err)
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
