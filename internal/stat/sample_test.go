package stat

import (
	"math"
	"math/rand"
	"testing"
)

func TestRandomFMean(t *testing.T) {
	// E[F(d1, d2)] = d2/(d2-2) for d2 > 2.
	rng := rand.New(rand.NewSource(31))
	const n = 30000
	var sum float64
	for i := 0; i < n; i++ {
		sum += RandomF(rng, 6, 20)
	}
	got := sum / n
	want := 20.0 / 18
	if math.Abs(got-want) > 0.05 {
		t.Errorf("mean RandomF = %v, want ≈ %v", got, want)
	}
}
