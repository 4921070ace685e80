package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	qcluster "repro"
	"repro/internal/synth"
)

// TestShardedApproxEquivalence runs the sharded ANN path with an
// exhaustive efSearch (candidates = collection, so exact refinement
// degenerates to exact search) and checks the stateless surface is
// bit-identical to the unsharded exact answer. The session
// surface — example and refined multipoint query alike — is a column of
// TestSessionParity.
func TestShardedApproxEquivalence(t *testing.T) {
	const n, dim, k = 1200, 6, 25
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(13)), n, dim, 16, 10, 0.5)
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(vectors, 3, qcluster.IndexOptions{
		Backend: qcluster.BackendANN,
		ANN:     qcluster.ANNOptions{EfSearch: n + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for q := 0; q < 20; q++ {
		example := vectors[(q*37)%n]
		want, _ := control.SearchByExampleContext(ctx, example, k)
		got, gerr := set.SearchByExampleContext(ctx, example, k)
		if gerr != nil {
			t.Fatal(gerr)
		}
		sameResults(t, fmt.Sprintf("approx example %d", q), want, got)
	}

	// A float32-overflowing vector is refused before the id map moves:
	// the set stays writable and its length unchanged.
	if _, err := set.AddBatchContext(ctx, [][]float64{{1e300, 0, 0, 0, 0, 0}}); err == nil || set.ReadOnly() || set.Len() != n {
		t.Fatalf("unquantizable batch: err %v, read-only %v, Len %d (want %d)", err, set.ReadOnly(), set.Len(), n)
	}
}
