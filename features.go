package qcluster

import (
	"image"

	"repro/internal/feature"
)

// ColorMomentsFeature extracts the HSV color-moment vector from an image:
// the hue mean (encoded as cosine and sine to respect hue circularity),
// hue dispersion moments, and mean/deviation/skewness of saturation and
// value — 10 components. Reduce with PCA (the paper uses 3 components)
// before indexing large collections.
func ColorMomentsFeature(img image.Image) []float64 {
	return feature.ColorMoments(toRGBA(img))
}

// TextureFeature extracts the 16-component gray-level co-occurrence
// texture vector (energy, inertia, entropy, homogeneity and the further
// Haralick statistics). Reduce with PCA (the paper uses 4 components)
// before indexing large collections.
func TextureFeature(img image.Image) []float64 {
	return feature.TextureFeatures(toRGBA(img))
}

// toRGBA returns img itself when it is an *image.RGBA, and otherwise a
// copy holding the high bytes of every pixel's At(x, y).RGBA(): the 8-bit
// premultiplied values the extractors read. The copy is an explicit loop
// because draw.Draw's conversion is not shown to give the same bytes.
func toRGBA(img image.Image) *image.RGBA {
	if m, ok := img.(*image.RGBA); ok {
		return m
	}
	b := img.Bounds()
	m := image.NewRGBA(b)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, a := img.At(x, y).RGBA()
			i := m.PixOffset(x, y)
			m.Pix[i], m.Pix[i+1], m.Pix[i+2], m.Pix[i+3] = uint8(r>>8), uint8(g>>8), uint8(bl>>8), uint8(a>>8)
		}
	}
	return m
}
