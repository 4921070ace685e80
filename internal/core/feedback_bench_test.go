package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// marks draws n relevance-scored points from a mixture of `modes`
// unit-variance Gaussians whose centres sit ~6σ apart, scored 3 or 1 like
// the serving benchmark's oracle (same category / same theme).
func marks(rng *rand.Rand, n, dim, modes, idBase int) []cluster.Point {
	ps := make([]cluster.Point, n)
	for i := range ps {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		v[0] += 6 * float64(rng.Intn(modes))
		score := 3.0
		if rng.Intn(4) == 0 {
			score = 1
		}
		ps[i] = cluster.Point{ID: idBase + i, Vec: v, Score: score}
	}
	return ps
}

// BenchmarkFeedbackRound prices one Feedback call at the two shapes the
// serving benchmark drives: corel_session (3-d, ~25 marks, diagonal) and
// mix16_session (16-d, 64 marks, full inverse). "first" is the
// hierarchical first round, "later" a round that classifies fresh points
// into an existing model (Algorithm 2) — both end with Algorithm 3.
func BenchmarkFeedbackRound(b *testing.B) {
	for _, bc := range []struct {
		name   string
		dim, n int
		scheme cluster.Scheme
	}{
		{"dim3_marks25_diagonal", 3, 25, cluster.Diagonal},
		{"dim16_marks64_inverse", 16, 64, cluster.FullInverse},
	} {
		rng := rand.New(rand.NewSource(13))
		round1 := marks(rng, bc.n, bc.dim, 2, 0)
		round2 := marks(rng, bc.n, bc.dim, 3, 1000)
		opt := Options{Scheme: bc.scheme}
		b.Run(bc.name+"/first", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(opt).Feedback(round1)
			}
		})
		b.Run(bc.name+"/later", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := New(opt)
				m.Feedback(round1)
				b.StartTimer()
				m.Feedback(round2)
			}
		})
	}
}
