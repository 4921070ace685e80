package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func gaussPoints(rng *rand.Rand, n int, cx, cy, spread float64, idBase int) []Point {
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point{
			ID:    idBase + i,
			Vec:   linalg.Vector{cx + spread*rng.NormFloat64(), cy + spread*rng.NormFloat64()},
			Score: 1,
		}
	}
	return ps
}

func TestAgglomerateGapUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	pts := gaussPoints(rng, 25, 0, 0, 1, 0)
	cs := AgglomerateGap(pts)
	if len(cs) != 1 {
		t.Errorf("unimodal set split into %d clusters", len(cs))
	}
}

func TestAgglomerateGapBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pts := gaussPoints(rng, 15, 0, 0, 0.3, 0)
	pts = append(pts, gaussPoints(rng, 15, 6, 0, 0.3, 100)...)
	cs := AgglomerateGap(pts)
	if len(cs) != 2 {
		t.Fatalf("bimodal set gave %d clusters", len(cs))
	}
	for _, c := range cs {
		left := c.Points[0].ID < 100
		for _, p := range c.Points {
			if (p.ID < 100) != left {
				t.Fatal("mixed cluster")
			}
		}
	}
}

func TestAgglomerateGapThreeModes(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	pts := gaussPoints(rng, 12, 0, 0, 0.3, 0)
	pts = append(pts, gaussPoints(rng, 12, 6, 0, 0.3, 100)...)
	pts = append(pts, gaussPoints(rng, 12, 0, 6, 0.3, 200)...)
	cs := AgglomerateGap(pts)
	if len(cs) != 3 {
		t.Errorf("three-mode set gave %d clusters", len(cs))
	}
}

func TestAgglomerateGapRobustToCoincidentPoints(t *testing.T) {
	// Two nearly coincident points produce a vanishing first merge
	// distance; the early-jump guard must not fragment the set.
	rng := rand.New(rand.NewSource(103))
	pts := gaussPoints(rng, 20, 0, 0, 1, 0)
	pts = append(pts, Point{ID: 999, Vec: pts[0].Vec.Clone(), Score: 1})
	cs := AgglomerateGap(pts)
	if len(cs) != 1 {
		t.Errorf("coincident pair caused %d clusters", len(cs))
	}
}

func TestAgglomerateGapTinyInputs(t *testing.T) {
	if out := AgglomerateGap(nil); out != nil {
		t.Error("nil input must give nil")
	}
	one := []Point{{Vec: linalg.Vector{0}, Score: 1}}
	if out := AgglomerateGap(one); len(out) != 1 {
		t.Error("single point must give one cluster")
	}
	two := []Point{
		{ID: 0, Vec: linalg.Vector{0, 0}, Score: 1},
		{ID: 1, Vec: linalg.Vector{9, 9}, Score: 1},
	}
	// Two points carry no dendrogram statistics: the gap rule merges
	// them (callers with tiny sets should use the statistical merge).
	out := AgglomerateGap(two)
	if len(out) != 1 {
		t.Errorf("two points gave %d clusters", len(out))
	}
}

func TestShrunkCov(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	c := gaussCluster(rng, 40, 2, linalg.Vector{0, 0}, 1)
	pooled := linalg.Diag(linalg.Vector{4, 4})

	// tau = 0: exactly the sample covariance.
	if !ShrunkCov(c, pooled, 0).Equal(c.SampleCov(), 1e-12) {
		t.Error("tau=0 must return the sample covariance")
	}
	// Heavy cluster: close to its own covariance.
	sh := ShrunkCov(c, pooled, 3)
	own := c.SampleCov()
	if d := sh.At(0, 0) - own.At(0, 0); d < 0 || d > 0.5 {
		t.Errorf("heavy-cluster shrinkage moved variance by %v", d)
	}
	// Singleton: exactly the pooled covariance (own weight mass = 0).
	s := FromPoint(Point{Vec: linalg.Vector{1, 1}, Score: 1})
	if !ShrunkCov(s, pooled, 3).Equal(pooled, 1e-12) {
		t.Error("singleton must inherit the pooled covariance")
	}
}

func TestMergeAtKeepsOrder(t *testing.T) {
	a := FromPoint(Point{ID: 1, Vec: linalg.Vector{0}, Score: 1})
	b := FromPoint(Point{ID: 2, Vec: linalg.Vector{1}, Score: 1})
	c := FromPoint(Point{ID: 3, Vec: linalg.Vector{2}, Score: 1})
	out := mergeAt([]*Cluster{a, b, c}, 0, 2)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].N() != 2 || out[1].N() != 1 {
		t.Errorf("sizes = %d, %d", out[0].N(), out[1].N())
	}
}
