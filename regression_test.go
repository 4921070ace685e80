package qcluster

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// Vector used to panic on an out-of-range id; it must return nil, and
// VectorOK must report presence explicitly.
func TestVectorOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 10, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 10, 1 << 30} {
		if v := db.Vector(id); v != nil {
			t.Errorf("Vector(%d) = %v, want nil", id, v)
		}
		if _, ok := db.VectorOK(id); ok {
			t.Errorf("VectorOK(%d) reported presence", id)
		}
	}
	if v, ok := db.VectorOK(9); !ok || len(v) != 4 {
		t.Fatalf("VectorOK(9) = %v, %v", v, ok)
	}
	// Ids minted by Add become valid immediately.
	id, err := db.Add(db.Vector(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.VectorOK(id); !ok {
		t.Fatalf("VectorOK(%d) after Add must succeed", id)
	}
}

// A gob round trip must preserve the full session state of a degraded
// query: the FullInverse ridge fallback re-fires on the restored model
// (Health reports it again), retrieval is unchanged, and the absorbed
// round count resumes where it left off.
func TestQuerySaveLoadDegradedHealthAndRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dim := 8
	db, err := NewDatabase(synth.Gaussian[[]float64](rng, 300, dim, 1))
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Options{Scheme: FullInverse})
	// Three near-collinear points in 8-D: scatter rank <= 2, so the full
	// covariance is singular and metric construction takes the
	// ridge-regularized path.
	base := db.Vector(0)
	var pts []Point
	for i := 0; i < 3; i++ {
		v := make([]float64, dim)
		for d := range v {
			v[d] = base[d] + 0.01*float64(i)*float64(d+1)
		}
		pts = append(pts, Point{ID: i, Vec: v, Score: 3})
	}
	if err := q.Feedback(pts); err != nil {
		t.Fatal(err)
	}
	want := db.Search(q, 20) // builds the metric, firing the fallback
	if !q.Health().Degraded() {
		t.Fatal("precondition: query must be degraded before saving")
	}
	if q.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", q.Rounds())
	}

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQuery(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rounds() != 1 {
		t.Errorf("restored rounds = %d, want 1", back.Rounds())
	}
	got := db.Search(back, 20)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d differs after round trip: %v != %v", i, got[i], want[i])
		}
	}
	if !back.Health().Degraded() {
		t.Error("restored query must report the ridge fallback in Health")
	}
	// Absorbing another round on the restored model keeps counting.
	extra := []Point{{ID: 100, Vec: db.Vector(100), Score: 3}}
	if err := back.Feedback(extra); err != nil {
		t.Fatal(err)
	}
	if back.Rounds() != 2 {
		t.Errorf("rounds after resume = %d, want 2", back.Rounds())
	}
}
