package qcluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/synth"
)

// TestManySessionsConcurrentFeedback is the multi-tenant stress test
// behind the serving layer: many goroutines each drive their own session
// (create, feedback rounds, retrieval) against one shared Database while
// a writer keeps appending new items. Sessions are independent — under
// -race this pins down that the only shared state (the database and its
// index) is properly synchronized.
func TestManySessionsConcurrentFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}

	const (
		tenants = 24
		rounds  = 3
		k       = 15
	)
	errs := make(chan error, tenants+1)

	// Writer: concurrent Adds force index inserts mid-retrieval.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		src := rand.New(rand.NewSource(24))
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := make([]float64, len(vectors[0]))
			for d := range v {
				v[d] = src.NormFloat64() * 3
			}
			if _, err := db.Add(v); err != nil {
				errs <- fmt.Errorf("concurrent Add: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for u := 0; u < tenants; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			exID := u % len(vectors)
			s := db.NewSession(db.Vector(exID), Options{})
			for round := 0; round < rounds; round++ {
				res := s.Results(k)
				if len(res) == 0 {
					errs <- fmt.Errorf("tenant %d round %d: empty results", u, round)
					return
				}
				var marked []Point
				for _, r := range res {
					// Adds may have grown the collection past the
					// labelled prefix; only label-known items get marked.
					if r.ID < len(labels) && labels[r.ID] == labels[exID] {
						marked = append(marked, Point{ID: r.ID, Vec: db.Vector(r.ID), Score: 3})
					}
				}
				if len(marked) == 0 {
					marked = append(marked, Point{ID: exID, Vec: db.Vector(exID), Score: 3})
				}
				if err := s.MarkRelevant(marked); err != nil {
					errs <- fmt.Errorf("tenant %d round %d: %w", u, round, err)
					return
				}
			}
			// Later rounds that re-mark only already-seen points are
			// deliberately not absorbed, so the count may stay below the
			// number of feedback calls — but never at zero or beyond.
			if got := s.Query().Rounds(); got < 1 || got > rounds {
				errs <- fmt.Errorf("tenant %d absorbed %d rounds, want 1..%d", u, got, rounds)
			}
		}(u)
	}

	// Stop the writer only after every tenant finished, so Adds overlap
	// the whole retrieval/feedback traffic.
	wg.Wait()
	close(stop)
	<-writerDone

	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
