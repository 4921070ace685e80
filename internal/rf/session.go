package rf

import (
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/linalg"
)

// Iteration is the outcome of one retrieval round.
type Iteration struct {
	// IDs are the k-NN answers, ascending distance.
	IDs []int
	// Stats is the index work the retrieval performed.
	Stats index.SearchStats
	// Elapsed is the wall-clock time of the metric build and the search.
	Elapsed time.Duration
	// Model is the engine's query model after the search and before the
	// round's feedback (the zero value for engines that keep none).
	Model core.Description
}

// Session drives one full Algorithm-1 loop: initial k-NN query from an
// example image, then alternating oracle feedback and refined retrieval.
type Session struct {
	Engine   Engine
	Searcher index.Searcher
	Oracle   *Oracle
	// Vec maps an image id to its feature vector.
	Vec func(int) linalg.Vector
	// K is the result size (the paper: 100).
	K int
}

// Run performs the initial query plus the given number of feedback
// iterations for the query image with the given id and category, and
// returns one Iteration per retrieval (iterations+1 entries).
func (s *Session) Run(queryID, queryCat, iterations int) []Iteration {
	s.Engine.Init(s.Vec(queryID))
	out := make([]Iteration, 0, iterations+1)
	for it := 0; it <= iterations; it++ {
		start := time.Now()
		metric := s.Engine.Metric()
		results, stats := s.Searcher.KNN(metric, s.K)
		elapsed := time.Since(start)
		ids := make([]int, len(results))
		for i, r := range results {
			ids[i] = r.ID
		}
		out = append(out, Iteration{
			IDs:     ids,
			Stats:   stats,
			Elapsed: elapsed,
			Model:   s.Engine.Describe(),
		})
		if it == iterations {
			break
		}
		s.Engine.Feedback(s.Oracle.Mark(queryCat, ids, s.Vec))
	}
	return out
}
