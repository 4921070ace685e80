package feature_test

import (
	"image"
	"image/color"
	"math/rand"
	"testing"

	qcluster "repro"
	"repro/internal/feature"
	"repro/internal/imagegen"
)

// checkImage compares both extractors on img with the image.Image-based
// reference, through the given entry points.
func checkImage(t *testing.T, name string, img image.Image, colorFn, textureFn func(image.Image) []float64) {
	t.Helper()
	if got, want := colorFn(img), feature.RefColorMoments(img); !feature.SameBits(got, want) {
		t.Fatalf("%s: color moments\n got  %v\n want %v", name, got, want)
	}
	if got, want := textureFn(img), feature.RefTextureFeatures(img); !feature.SameBits(got, want) {
		t.Fatalf("%s: texture\n got  %v\n want %v", name, got, want)
	}
}

// kernels are ColorMoments and TextureFeatures called directly, for
// images that are already *image.RGBA.
func kernels() (colorFn, textureFn func(image.Image) []float64) {
	return func(img image.Image) []float64 { return feature.ColorMoments(img.(*image.RGBA)) },
		func(img image.Image) []float64 { return feature.TextureFeatures(img.(*image.RGBA)) }
}

// TestFeaturesMatchReference checks ColorMoments and TextureFeatures bit
// for bit against the reference on rendered images of every pattern and
// variant at sizes 1–48, on sub-images with a non-zero origin and a wide
// stride, and — through qcluster.ColorMomentsFeature and TextureFeature —
// on NRGBA, Gray and YCbCr images.
func TestFeaturesMatchReference(t *testing.T) {
	colorK, textureK := kernels()
	cats := imagegen.GenerateCategories(36, 2, 2, 1)
	for p := imagegen.Solid; p <= imagegen.Diagonal; p++ {
		for _, cat := range cats {
			variants := make([]imagegen.Variant, len(cat.Variants))
			for i, v := range cat.Variants {
				v.Pattern = p
				variants[i] = v
			}
			c := imagegen.Category{Variants: variants}
			for size := 1; size <= 48; size++ {
				for vi := range variants {
					img := c.RenderVariant(vi, int64(size*10+vi), size)
					checkImage(t, p.String(), img, colorK, textureK)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 100; i++ {
		outer := image.Rect(-rng.Intn(20), -rng.Intn(20), 1+rng.Intn(60), 1+rng.Intn(60))
		whole := feature.RandomRGBA(rng, outer)
		checkImage(t, "offset origin", whole, colorK, textureK)
		x0, y0 := outer.Min.X+rng.Intn(outer.Dx()), outer.Min.Y+rng.Intn(outer.Dy())
		sub := whole.SubImage(image.Rect(x0, y0, x0+1+rng.Intn(outer.Max.X-x0), y0+1+rng.Intn(outer.Max.Y-y0)))
		checkImage(t, "sub-image", sub, colorK, textureK)
		checkImage(t, "sub-image via wrapper", sub, qcluster.ColorMomentsFeature, qcluster.TextureFeature)

		nrgba := image.NewNRGBA(outer)
		gray := image.NewGray(outer)
		ycc := image.NewYCbCr(outer, image.YCbCrSubsampleRatio420)
		for y := outer.Min.Y; y < outer.Max.Y; y++ {
			for x := outer.Min.X; x < outer.Max.X; x++ {
				c := whole.RGBAAt(x, y)
				nrgba.SetNRGBA(x, y, color.NRGBA{c.R, c.G, c.B, c.A})
				gray.SetGray(x, y, color.Gray{c.G})
				yy, cb, cr := color.RGBToYCbCr(c.R, c.G, c.B)
				ycc.Y[ycc.YOffset(x, y)] = yy
				ycc.Cb[ycc.COffset(x, y)] = cb
				ycc.Cr[ycc.COffset(x, y)] = cr
			}
		}
		checkImage(t, "NRGBA", nrgba, qcluster.ColorMomentsFeature, qcluster.TextureFeature)
		checkImage(t, "Gray", gray, qcluster.ColorMomentsFeature, qcluster.TextureFeature)
		checkImage(t, "YCbCr", ycc, qcluster.ColorMomentsFeature, qcluster.TextureFeature)
	}
}
