package feature

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func solid(c color.RGBA, w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

func stripes(a, b color.RGBA, w, h, period int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x/period)%2 == 0 {
				img.SetRGBA(x, y, a)
			} else {
				img.SetRGBA(x, y, b)
			}
		}
	}
	return img
}

func noisy(rng *rand.Rand, w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g := uint8(rng.Intn(256))
			img.SetRGBA(x, y, color.RGBA{g, g, g, 255})
		}
	}
	return img
}

func TestRGBToHSVKnown(t *testing.T) {
	cases := []struct {
		r, g, b uint8
		h, s, v float64
	}{
		{255, 0, 0, 0, 1, 1},     // red
		{0, 255, 0, 120, 1, 1},   // green
		{0, 0, 255, 240, 1, 1},   // blue
		{255, 255, 255, 0, 0, 1}, // white
		{0, 0, 0, 0, 0, 0},       // black
		{128, 128, 128, 0, 0, 128.0 / 255},
	}
	for _, c := range cases {
		h, s, v := RGBToHSV(c.r, c.g, c.b)
		if math.Abs(h-c.h) > 1e-9 || math.Abs(s-c.s) > 1e-9 || math.Abs(v-c.v) > 1e-9 {
			t.Errorf("RGBToHSV(%d,%d,%d) = %v,%v,%v want %v,%v,%v",
				c.r, c.g, c.b, h, s, v, c.h, c.s, c.v)
		}
	}
}

func TestRGBToHSVRange(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 2000; i++ {
		h, s, v := RGBToHSV(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		if h < 0 || h >= 360 || s < 0 || s > 1 || v < 0 || v > 1 {
			t.Fatalf("out of range: %v %v %v", h, s, v)
		}
	}
}

func TestColorMomentsSolid(t *testing.T) {
	// A solid image has zero deviation and skewness on every channel.
	img := solid(color.RGBA{200, 50, 50, 255}, 16, 16)
	f := ColorMoments(img)
	if len(f) != ColorMomentsDim {
		t.Fatalf("dim = %d", len(f))
	}
	for _, idx := range []int{2, 3, 5, 6, 8, 9} { // std and skew positions
		if math.Abs(f[idx]) > 1e-9 {
			t.Errorf("solid image moment[%d] = %v, want 0", idx, f[idx])
		}
	}
	// V-channel mean should be ≈ 200/255.
	if math.Abs(f[7]-200.0/255) > 1e-9 {
		t.Errorf("V mean = %v", f[7])
	}
	// Hue mean encoding must be a unit vector.
	if math.Abs(f[0]*f[0]+f[1]*f[1]-1) > 1e-9 {
		t.Errorf("hue mean (cos,sin) not unit: %v, %v", f[0], f[1])
	}
}

func TestColorMomentsDistinguishColors(t *testing.T) {
	red := ColorMoments(solid(color.RGBA{255, 0, 0, 255}, 8, 8))
	blue := ColorMoments(solid(color.RGBA{0, 0, 255, 255}, 8, 8))
	if red.Dist(blue) < 0.1 {
		t.Error("red and blue produce nearly identical color moments")
	}
}

// glcm is the co-occurrence matrix TextureFeatures builds for img.
func glcm(img *image.RGBA) *linalg.Matrix {
	b := img.Bounds()
	m := linalg.NewMatrix(GLCMLevels, GLCMLevels)
	glcmFromGray(m, grayPlane(img, nil), b.Dx(), b.Dy())
	return m
}

func TestGLCMNormalizedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := glcm(noisy(rng, 32, 32))
	var sum float64
	for _, v := range m.Data {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("GLCM sums to %v", sum)
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > 1e-12 {
				t.Fatalf("GLCM asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGLCMSolidConcentrated(t *testing.T) {
	// A solid image co-occurs only at one (i, i) cell.
	m := glcm(solid(color.RGBA{100, 100, 100, 255}, 16, 16))
	nonZero := 0
	for _, v := range m.Data {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Errorf("solid GLCM has %d nonzero cells, want 1", nonZero)
	}
}

func TestTextureFeaturesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	smooth := TextureFeatures(solid(color.RGBA{100, 100, 100, 255}, 32, 32))
	rough := TextureFeatures(noisy(rng, 32, 32))
	if len(smooth) != TextureDim || len(rough) != TextureDim {
		t.Fatal("dimension mismatch")
	}
	// Energy: smooth=1 (all mass in one cell) > rough.
	if smooth[0] <= rough[0] {
		t.Errorf("energy smooth %v <= rough %v", smooth[0], rough[0])
	}
	// Entropy: rough > smooth (=0).
	if rough[2] <= smooth[2] {
		t.Errorf("entropy rough %v <= smooth %v", rough[2], smooth[2])
	}
	// Contrast/inertia: rough > smooth (=0).
	if rough[1] <= smooth[1] {
		t.Errorf("inertia rough %v <= smooth %v", rough[1], smooth[1])
	}
	// Homogeneity: smooth (=1) > rough.
	if smooth[3] <= rough[3] {
		t.Errorf("homogeneity smooth %v <= rough %v", smooth[3], rough[3])
	}
	if math.Abs(smooth[0]-1) > 1e-9 || math.Abs(smooth[3]-1) > 1e-9 {
		t.Errorf("solid image energy/homogeneity = %v/%v, want 1/1", smooth[0], smooth[3])
	}
}

func TestTextureDistinguishesStripePeriod(t *testing.T) {
	a := color.RGBA{0, 0, 0, 255}
	b := color.RGBA{255, 255, 255, 255}
	fine := TextureFeatures(stripes(a, b, 32, 32, 1))
	coarse := TextureFeatures(stripes(a, b, 32, 32, 8))
	if fine.Dist(coarse) < 1e-3 {
		t.Error("fine and coarse stripes produce identical texture features")
	}
	// Fine stripes have higher contrast (more transitions).
	if fine[1] <= coarse[1] {
		t.Errorf("contrast fine %v <= coarse %v", fine[1], coarse[1])
	}
}

func TestTextureColorInvariance(t *testing.T) {
	// Texture is computed on luminance: hue changes at equal luminance
	// should barely move the features. Use colors with equal BT.601 luma.
	// luma(r,g,b): pick (200,0,0) luma≈59.8 and (0,102,0) luma≈59.9.
	redish := TextureFeatures(stripes(color.RGBA{200, 0, 0, 255}, color.RGBA{0, 0, 0, 255}, 32, 32, 4))
	greenish := TextureFeatures(stripes(color.RGBA{0, 102, 0, 255}, color.RGBA{0, 0, 0, 255}, 32, 32, 4))
	if redish.Dist(greenish) > 1e-6 {
		t.Errorf("equal-luma stripes differ: %v", redish.Dist(greenish))
	}
}

func TestGrayPlane(t *testing.T) {
	img := solid(color.RGBA{255, 0, 0, 255}, 4, 4)
	g := grayPlane(img, nil)
	if len(g) != 16 {
		t.Fatalf("len=%d", len(g))
	}
	want := uint8(math.Round(0.299 * 255))
	if g[0] != want {
		t.Errorf("red luma = %d, want %d", g[0], want)
	}
}
