package qcluster

import (
	"bytes"
	"image"
	"image/color"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/synth"
)

// testBlobs is a clustered 3-D collection: category c occupies a blob;
// category 0 is bimodal.
var testBlobs = []synth.Blob{
	{Label: 0, N: 15, Center: []float64{0, 0, 0}, Spread: 0.4},
	{Label: 0, N: 15, Center: []float64{4, 4, 4}, Spread: 0.4},
	{Label: 1, N: 30, Center: []float64{-6, 6, 0}, Spread: 0.5},
	{Label: 2, N: 20, Center: []float64{2, 2, 2}, Spread: 1.2}, // clutter between the category-0 modes
}

func TestDatabaseBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(vectors) || db.Dim() != 3 {
		t.Fatalf("Len=%d Dim=%d", db.Len(), db.Dim())
	}
	res := db.SearchByExample(db.Vector(0), 5)
	if len(res) != 5 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].ID != 0 || res[0].Dist != 0 {
		t.Errorf("self-query should rank itself first: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Error("results must be ascending by distance")
		}
	}
}

func TestNewDatabaseErrors(t *testing.T) {
	if _, err := NewDatabase(nil); err == nil {
		t.Error("empty database must error")
	}
	if _, err := NewDatabase([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged vectors must error")
	}
}

func TestSessionFeedbackLoopFindsBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, err := NewDatabase(vectors)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession(db.Vector(0), Options{})

	recallCat0 := func(res []Result) float64 {
		hits := 0
		for _, r := range res {
			if labels[r.ID] == 0 {
				hits++
			}
		}
		return float64(hits) / 30
	}

	var lastRecall float64
	for round := 0; round < 4; round++ {
		res := s.Results(40)
		lastRecall = recallCat0(res)
		var marked []Point
		for _, r := range res {
			if labels[r.ID] == 0 {
				marked = append(marked, Point{ID: r.ID, Vec: db.Vector(r.ID), Score: 3})
			}
		}
		s.MarkRelevant(marked)
	}
	if lastRecall < 0.9 {
		t.Errorf("final recall = %v, want >= 0.9", lastRecall)
	}
	if s.Query().NumQueryPoints() < 2 {
		t.Errorf("bimodal query used %d query points", s.Query().NumQueryPoints())
	}
	if e := s.Query().ClusterQualityError(); e > 0.3 {
		t.Errorf("cluster quality error = %v", e)
	}
}

func TestQueryAPI(t *testing.T) {
	q := NewQuery(Options{Scheme: FullInverse, Alpha: 0.01, MaxQueryPoints: 3})
	if q.Ready() {
		t.Error("fresh query must not be ready")
	}
	// Ignore junk feedback.
	q.Feedback([]Point{{ID: 1, Vec: []float64{0, 0}, Score: 0}})
	if q.Ready() {
		t.Error("zero-score feedback must be ignored")
	}
	q.Feedback([]Point{
		{ID: 1, Vec: []float64{0, 0}, Score: 3},
		{ID: 2, Vec: []float64{0.1, 0}, Score: 3},
		{ID: 3, Vec: []float64{5, 5}, Score: 1},
	})
	if !q.Ready() {
		t.Fatal("query must be ready after feedback")
	}
	reps := q.Representatives()
	if len(reps) != q.NumQueryPoints() || len(reps) == 0 {
		t.Errorf("reps = %d, NumQueryPoints = %d", len(reps), q.NumQueryPoints())
	}
}

func TestSearchWithQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, _ := NewDatabase(vectors)
	q := NewQuery(Options{})
	// Feed both category-0 modes directly.
	var pts []Point
	for id, l := range labels {
		if l == 0 {
			pts = append(pts, Point{ID: id, Vec: db.Vector(id), Score: 3})
		}
	}
	q.Feedback(pts)
	res := db.Search(q, 30)
	hits := 0
	for _, r := range res {
		if labels[r.ID] == 0 {
			hits++
		}
	}
	if hits < 27 {
		t.Errorf("disjunctive search found %d/30 category-0 items in top-30", hits)
	}
}

func TestFeatureHelpers(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 16, 16))
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			img.SetRGBA(x, y, color.RGBA{uint8(x * 16), 100, uint8(y * 16), 255})
		}
	}
	if f := ColorMomentsFeature(img); len(f) != 10 {
		t.Errorf("color feature dim = %d", len(f))
	}
	if f := TextureFeature(img); len(f) != 16 {
		t.Errorf("texture feature dim = %d", len(f))
	}
}

func TestSchemeMapping(t *testing.T) {
	if Diagonal.internal().String() != "diagonal" {
		t.Error("Diagonal mapping")
	}
	if FullInverse.internal().String() != "inverse" {
		t.Error("FullInverse mapping")
	}
}

func TestFeedbackValidation(t *testing.T) {
	q := NewQuery(Options{})
	// Dim conflict inside one batch.
	err := q.Feedback([]Point{
		{ID: 1, Vec: []float64{0, 0}, Score: 1},
		{ID: 2, Vec: []float64{0, 0, 0}, Score: 1},
	})
	if err == nil {
		t.Fatal("mixed-dimension batch must error")
	}
	if q.Ready() {
		t.Error("failed feedback must not mutate the model")
	}
	// Empty vector.
	if err := q.Feedback([]Point{{ID: 1, Vec: nil, Score: 1}}); err == nil {
		t.Error("empty vector must error")
	}
	// Valid batch, then a conflicting later batch.
	if err := q.Feedback([]Point{{ID: 1, Vec: []float64{0, 0}, Score: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Feedback([]Point{{ID: 2, Vec: []float64{1, 2, 3}, Score: 1}}); err == nil {
		t.Error("later dim conflict must error")
	}
}

func TestMarkRelevantValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	db, _ := NewDatabase(vectors)
	s := db.NewSession(db.Vector(0), Options{})
	if err := s.MarkRelevant([]Point{{ID: 1, Vec: []float64{1}, Score: 3}}); err == nil {
		t.Error("wrong-dimension point must error")
	}
	if err := s.MarkRelevant([]Point{{ID: 1, Vec: db.Vector(1), Score: 3}}); err != nil {
		t.Errorf("valid point errored: %v", err)
	}
}

func TestQuerySaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vectors, labels := synth.Blobs[[]float64](rng, testBlobs...)
	db, _ := NewDatabase(vectors)
	q := NewQuery(Options{})
	var pts []Point
	for id, l := range labels {
		if l == 0 {
			pts = append(pts, Point{ID: id, Vec: db.Vector(id), Score: 3})
		}
	}
	if err := q.Feedback(pts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQuery(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQueryPoints() != q.NumQueryPoints() {
		t.Errorf("query points %d != %d", back.NumQueryPoints(), q.NumQueryPoints())
	}
	// Restored query retrieves the same results.
	a, b := db.Search(q, 20), db.Search(back, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs after round trip", i)
		}
	}
	// Dimension validation still enforced after load.
	if err := back.Feedback([]Point{{ID: 999, Vec: []float64{1}, Score: 1}}); err == nil {
		t.Error("restored query must keep dimension validation")
	}
}

func TestDatabaseConcurrentSearch(t *testing.T) {
	// Database is immutable after construction: concurrent searches must
	// be safe and agree with the serial answer.
	rng := rand.New(rand.NewSource(6))
	vectors, _ := synth.Blobs[[]float64](rng, testBlobs...)
	db, _ := NewDatabase(vectors)
	want := db.SearchByExample(db.Vector(3), 10)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := db.SearchByExample(db.Vector(3), 10)
			for i := range want {
				if got[i] != want[i] {
					errs <- "concurrent search diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDatabaseAdd(t *testing.T) {
	db, _ := NewDatabase([][]float64{{0, 0}, {1, 1}})
	id, err := db.Add([]float64{0.1, 0})
	if err != nil || id != 2 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	res := db.SearchByExample([]float64{0, 0}, 2)
	if res[0].ID != 0 || res[1].ID != 2 {
		t.Errorf("added item not retrievable in order: %+v", res)
	}
	if _, err := db.Add([]float64{1}); err == nil {
		t.Error("dim mismatch must error")
	}
}
