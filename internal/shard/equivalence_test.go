package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	qcluster "repro"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

func sameResults(t *testing.T, label string, want, got []qcluster.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID ||
			math.Float64bits(want[i].Dist) != math.Float64bits(got[i].Dist) {
			t.Fatalf("%s: result %d diverges: got (%d, %x), want (%d, %x)",
				label, i, got[i].ID, math.Float64bits(got[i].Dist),
				want[i].ID, math.Float64bits(want[i].Dist))
		}
	}
}

// TestScatterGatherEquivalence is the bit-identity gate: sharded
// scatter-gather must reproduce the unsharded search exactly — same
// ids, same distance bits, same order — across shard counts, both
// covariance schemes, and both the example and the refined multipoint
// query paths. Well over 1k queries run under -race in CI.
func TestScatterGatherEquivalence(t *testing.T) {
	const (
		n   = 9000 // above the parallel-path threshold: shards share the bound across worker pools
		dim = 8
		k   = 20
	)
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(7)), n, dim, 16, 10, 0.5)
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	queries := 0

	for _, shards := range []int{2, 3, 5} {
		set, err := New(vectors, shards, qcluster.IndexOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if set.Len() != n || set.Dim() != dim {
			t.Fatalf("shards=%d: set reports %d×%d, want %d×%d", shards, set.Len(), set.Dim(), n, dim)
		}

		// Stateless example queries.
		for q := 0; q < 250; q++ {
			example := vectors[rng.Intn(n)]
			want, werr := control.SearchByExampleContext(context.Background(), example, k)
			got, gerr := set.SearchByExampleContext(context.Background(), example, k)
			if werr != nil || gerr != nil {
				t.Fatalf("shards=%d query %d: errors %v / %v", shards, q, werr, gerr)
			}
			sameResults(t, fmt.Sprintf("shards=%d example %d", shards, q), want, got)
			queries++
		}

		// Feedback sessions: identical feedback drives identical query
		// models, so every refined retrieval must match bit-for-bit.
		for _, scheme := range []qcluster.Scheme{qcluster.Diagonal, qcluster.FullInverse} {
			for sess := 0; sess < 8; sess++ {
				example := vectors[rng.Intn(n)]
				opt := qcluster.Options{Scheme: scheme}
				cs := control.NewSession(example, opt)
				ss := set.NewSession(example, opt)
				for round := 0; round < 4; round++ {
					want, werr := cs.ResultsContext(context.Background(), k)
					got, gerr := ss.ResultsContext(context.Background(), k)
					if werr != nil || gerr != nil {
						t.Fatalf("shards=%d scheme=%d sess=%d round=%d: errors %v / %v",
							shards, scheme, sess, round, werr, gerr)
					}
					sameResults(t, fmt.Sprintf("shards=%d scheme=%d sess=%d round=%d", shards, scheme, sess, round), want, got)
					queries++
					// Mark a scattered subset of the results relevant; ids
					// (and vectors) agree between control and set by the
					// equivalence just asserted.
					var marked []qcluster.Point
					for i, r := range want {
						if i%3 == round%3 {
							marked = append(marked, qcluster.Point{ID: r.ID, Vec: control.Vector(r.ID), Score: 1 + float64(i%2)*2})
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
		}
	}

	// Small collections exercise the sequential per-shard path (below
	// the parallel threshold) with the same bit-identity contract.
	small := vectors[:2500]
	smallControl, err := qcluster.NewDatabase(small)
	if err != nil {
		t.Fatal(err)
	}
	smallSet, err := New(small, 4, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 300; q++ {
		example := small[rng.Intn(len(small))]
		want, _ := smallControl.SearchByExampleContext(context.Background(), example, k)
		got, gerr := smallSet.SearchByExampleContext(context.Background(), example, k)
		if gerr != nil {
			t.Fatal(gerr)
		}
		sameResults(t, fmt.Sprintf("small example %d", q), want, got)
		queries++
	}
	if queries < 1000 {
		t.Fatalf("equivalence sweep ran only %d queries, want >= 1000", queries)
	}
}

// TestScatterGatherKLargerThanSet covers the heap-never-fills edge: k
// beyond the collection size must return everything, still identical.
func TestScatterGatherKLargerThanSet(t *testing.T) {
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(3)), 400, 6, 16, 10, 0.5)
	control, err := qcluster.NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(vectors, 3, qcluster.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := control.SearchByExampleContext(context.Background(), vectors[5], 1000)
	got, gerr := set.SearchByExampleContext(context.Background(), vectors[5], 1000)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if len(got) != 400 {
		t.Fatalf("got %d results, want all 400", len(got))
	}
	sameResults(t, "k>n", want, got)
}

// TestScatterGatherCancellation checks the partial-results contract:
// a context cancelled mid-search interrupts whichever shards are still
// traversing, and the gather merges what the subset of shards had found
// into a sorted, duplicate-free best-effort answer tagged with both
// ErrPartialResults and the context error.
func TestScatterGatherCancellation(t *testing.T) {
	vectors := synth.RoundRobin[[]float64](rand.New(rand.NewSource(21)), 6000, 8, 16, 10, 0.5)
	set, err := New(vectors, 4, qcluster.IndexOptions{SearchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var pops atomic.Int32 // the hook fires on every shard's leg at once
	faultinject.Set(faultinject.KNNPop, func() {
		if pops.Add(1) == 40 {
			cancel() // some shards mid-traversal, others possibly done: a subset answers
		}
	})
	defer faultinject.Clear(faultinject.KNNPop)

	res, err := set.SearchByExampleContext(ctx, vectors[100], 25)
	if err == nil {
		t.Fatal("cancelled search returned no error")
	}
	if !errors.Is(err, qcluster.ErrPartialResults) {
		t.Fatalf("error %v does not match ErrPartialResults", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
	seen := map[int]bool{}
	for i, r := range res {
		if i > 0 && (res[i-1].Dist > r.Dist || (res[i-1].Dist == r.Dist && res[i-1].ID >= r.ID)) {
			t.Fatalf("partial results not in (dist, id) order at %d", i)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate id %d in partial results", r.ID)
		}
		seen[r.ID] = true
	}

	// An already-expired context fails fast without fanning out.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := set.SearchByExampleContext(done, vectors[0], 5); err == nil {
		t.Fatal("expired context did not fail")
	}
}
