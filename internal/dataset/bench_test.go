package dataset

import (
	"testing"

	"repro/internal/imagegen"
)

var sinkDataset *Dataset

// BenchmarkDatasetBuild prices one build of a 3 000-image corel-shaped
// collection (30 categories × 100 images at 32 pixels, two workers).
func BenchmarkDatasetBuild(b *testing.B) {
	cfg := Config{
		Collection: imagegen.CollectionConfig{Seed: 2003, NumCategories: 30, ImagesPerCategory: 100, ImageSize: 32, BimodalFrac: 0.3},
		Workers:    2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkDataset = ds
	}
}
