package feature

import (
	"image"
	"testing"

	"repro/internal/imagegen"
	"repro/internal/linalg"
)

var sinkVector linalg.Vector

// corelImages renders the first n images of a corel-shaped collection
// (the qgen defaults: 32 pixels, 30 % complex categories).
func corelImages(n int) []*image.RGBA {
	col := imagegen.NewCollection(imagegen.CollectionConfig{Seed: 2003, NumCategories: 30, ImagesPerCategory: 100, ImageSize: 32, BimodalFrac: 0.3})
	imgs := make([]*image.RGBA, n)
	for i := range imgs {
		imgs[i] = col.Render(i * col.NumImages() / n)
	}
	return imgs
}

// BenchmarkColorMoments prices the color-moment vector of one image.
func BenchmarkColorMoments(b *testing.B) {
	imgs := corelImages(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = ColorMoments(imgs[i%len(imgs)])
	}
}

// BenchmarkTextureFeatures prices the co-occurrence texture vector of one
// image.
func BenchmarkTextureFeatures(b *testing.B) {
	imgs := corelImages(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkVector = TextureFeatures(imgs[i%len(imgs)])
	}
}
