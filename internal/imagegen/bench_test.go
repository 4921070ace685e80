package imagegen

import (
	"image"
	"testing"
)

// BenchmarkRender prices one 32-pixel image of a corel-shaped collection
// (the qgen defaults), cycling through its first 3 000 images.
func BenchmarkRender(b *testing.B) {
	col := NewCollection(CollectionConfig{Seed: 2003, NumCategories: 30, ImagesPerCategory: 100, ImageSize: 32, BimodalFrac: 0.3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkImage = col.Render(i % col.NumImages())
	}
}

var sinkImage *image.RGBA
