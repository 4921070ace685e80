package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func twoBlobs(rng *rand.Rand, n int) []Point {
	ps := make([]Point, 0, 2*n)
	for i := 0; i < n; i++ {
		ps = append(ps, Point{
			ID:    i,
			Vec:   linalg.Vector{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3},
			Score: 1,
		})
	}
	for i := 0; i < n; i++ {
		ps = append(ps, Point{
			ID:    n + i,
			Vec:   linalg.Vector{10 + rng.NormFloat64()*0.3, 10 + rng.NormFloat64()*0.3},
			Score: 1,
		})
	}
	return ps
}

func TestAgglomerateTargetCount(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ps := twoBlobs(rng, 15)
	cs := Agglomerate(ps, 2)
	if len(cs) != 2 {
		t.Fatalf("got %d clusters", len(cs))
	}
	// Each resulting cluster must be pure: all IDs < 15 or all >= 15.
	for _, c := range cs {
		low := c.Points[0].ID < 15
		for _, p := range c.Points {
			if (p.ID < 15) != low {
				t.Fatal("mixed cluster")
			}
		}
	}
}

func TestAgglomerateDegenerate(t *testing.T) {
	if out := Agglomerate(nil, 0); out != nil {
		t.Error("nil input must give nil")
	}
	one := []Point{{Vec: linalg.Vector{1}, Score: 1}}
	if out := Agglomerate(one, 1); len(out) != 1 {
		t.Error("single point must give one cluster")
	}
}

func TestAgglomerateAllMergeWithoutBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ps := twoBlobs(rng, 5)
	cs := Agglomerate(ps, 0)
	if len(cs) != 1 {
		t.Fatalf("unbounded agglomeration must give 1 cluster, got %d", len(cs))
	}
	if cs[0].N() != 10 {
		t.Fatalf("merged cluster has %d points", cs[0].N())
	}
}
