package qcluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// Search on a query with no feedback must return nil, not reach the
// core's "Metric before any feedback" panic (Search has no recover
// barrier — the panic used to escape to the caller).
func TestSearchNotReadyReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 60, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res := db.Search(NewQuery(Options{}), 5); res != nil {
		t.Fatalf("Search(not-ready) = %v, want nil", res)
	}
	// The context variant keeps its typed error.
	if _, err := db.SearchContext(context.Background(), NewQuery(Options{}), 5); !errors.Is(err, ErrNotReady) {
		t.Fatalf("SearchContext err = %v, want ErrNotReady", err)
	}
}

// Dimension-mismatched examples must be rejected at the boundary: a
// longer example used to panic (index out of range inside the index's
// lower bound), a shorter one silently ranked by a prefix of the
// dimensions.
func TestSearchByExampleDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 80, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, example := range [][]float64{
		{1, 2, 3},       // shorter: would rank by a 3-of-4 prefix
		{1, 2, 3, 4, 5}, // longer: used to panic
		{},              // empty
		nil,             // nil
	} {
		if res := db.SearchByExample(example, 5); res != nil {
			t.Errorf("SearchByExample(dim %d) = %v, want nil", len(example), res)
		}
		_, err := db.SearchByExampleContext(context.Background(), example, 5)
		if !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("SearchByExampleContext(dim %d) err = %v, want ErrDimensionMismatch", len(example), err)
		}
	}
	// A correct example still works.
	if res := db.SearchByExample(db.Vector(0), 5); len(res) != 5 {
		t.Fatalf("valid example returned %d results", len(res))
	}
}

// A session started from a mismatched example must fail its pre-feedback
// retrievals cleanly: nil from Results, ErrDimensionMismatch from
// ResultsContext.
func TestNewSessionDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 80, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession([]float64{1, 2, 3, 4, 5, 6}, Options{})
	if res := s.Results(5); res != nil {
		t.Fatalf("Results = %v, want nil", res)
	}
	if _, err := s.ResultsContext(context.Background(), 5); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("ResultsContext err = %v, want ErrDimensionMismatch", err)
	}
	// Feedback with correctly-dimensioned points makes the session usable
	// again: the refined query searches with the feedback's metric.
	if err := s.MarkRelevant([]Point{
		{ID: 0, Vec: db.Vector(0), Score: 3},
		{ID: 1, Vec: db.Vector(1), Score: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if res := s.Results(5); len(res) != 5 {
		t.Fatalf("post-feedback Results returned %d results", len(res))
	}
}

// The parallelism knob is plumbed through the public constructor: a
// database built with explicit options must search identically to the
// default one.
func TestNewDatabaseWithOptionsParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	vecs := synth.Gaussian[[]float64](rng, 500, 6, 1)
	seqDB, err := NewDatabaseWithOptions(vecs, IndexOptions{SearchParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parDB, err := NewDatabaseWithOptions(vecs, IndexOptions{SearchParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 20; q++ {
		example := vecs[rng.Intn(len(vecs))]
		a := seqDB.SearchByExample(example, 10)
		b := parDB.SearchByExample(example, 10)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: %+v != %+v", q, i, a[i], b[i])
			}
		}
	}
}
