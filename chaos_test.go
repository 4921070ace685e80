package qcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/synth"
)

// TestChaosConcurrentDatabase hammers one shared Database from 12
// goroutines mixing Add, plain and context searches, and session
// feedback (Results + MarkRelevant on shared sessions), with cancelled
// and deadlined contexts sprinkled in. It is the -race workout for the
// concurrency contract: no panics, no races, only the documented error
// kinds, and every result list sorted.
func TestChaosConcurrentDatabase(t *testing.T) {
	const (
		initial  = 400
		dim      = 6
		workers  = 12
		iters    = 60
		sessions = 4
	)
	rng := rand.New(rand.NewSource(20))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, initial, dim, 1))
	if err != nil {
		t.Fatal(err)
	}

	shared := make([]*Session, sessions)
	for i := range shared {
		shared[i] = db.NewSession(db.Vector(i), Options{})
	}
	// One shared query hit by concurrent Feedback and SearchContext.
	sharedQuery := NewQuery(Options{})
	if err := sharedQuery.Feedback([]Point{
		{ID: 0, Vec: db.Vector(0), Score: 3},
		{ID: 1, Vec: db.Vector(1), Score: 3},
	}); err != nil {
		t.Fatal(err)
	}

	checkSorted := func(res []Result) error {
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return fmt.Errorf("unsorted results at %d", i)
			}
		}
		return nil
	}
	allowedErr := func(err error) bool {
		return err == nil ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrPartialResults)
	}

	errs := make(chan error, workers*iters)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			randVec := func() []float64 {
				v := make([]float64, dim)
				for d := range v {
					v[d] = rng.NormFloat64()
				}
				return v
			}
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0: // writer: grow the database under readers
					if _, err := db.Add(randVec()); err != nil {
						errs <- fmt.Errorf("Add: %w", err)
					}
				case 1: // plain + example searches, some pre-cancelled
					if i%5 == 0 {
						ctx, cancel := context.WithCancel(context.Background())
						cancel()
						if _, err := db.SearchByExampleContext(ctx, randVec(), 10); !errors.Is(err, context.Canceled) {
							errs <- fmt.Errorf("pre-cancelled example search: %w", err)
						}
					} else if res := db.SearchByExample(randVec(), 10); checkSorted(res) != nil {
						errs <- errors.New("unsorted example results")
					}
				case 2: // query searches racing query feedback
					if i%7 == 0 {
						if err := sharedQuery.Feedback([]Point{
							{ID: rng.Intn(initial), Vec: db.Vector(rng.Intn(initial)), Score: 1 + float64(rng.Intn(3))},
						}); err != nil {
							errs <- fmt.Errorf("shared query feedback: %w", err)
						}
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(3))*time.Millisecond)
					res, err := db.SearchContext(ctx, sharedQuery, 15)
					cancel()
					if !allowedErr(err) {
						errs <- fmt.Errorf("SearchContext: %w", err)
					}
					if err := checkSorted(res); err != nil {
						errs <- err
					}
				case 3: // shared-session feedback loop
					s := shared[i%sessions] // cycle so every session is contended
					res, err := s.ResultsContext(context.Background(), 20)
					if !allowedErr(err) {
						errs <- fmt.Errorf("ResultsContext: %w", err)
					}
					if err := checkSorted(res); err != nil {
						errs <- err
					}
					var marked []Point
					for _, r := range res[:min(3, len(res))] {
						if r.ID < initial { // ids added concurrently may outrun Vector reads
							marked = append(marked, Point{ID: r.ID, Vec: db.Vector(r.ID), Score: 3})
						}
					}
					if err := s.MarkRelevant(marked); err != nil {
						errs <- fmt.Errorf("MarkRelevant: %w", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if db.Len() < initial {
		t.Errorf("database shrank: %d", db.Len())
	}
}
