package imagegen

import (
	"bytes"
	"image"
	"math"
	"math/rand"
	"testing"

	"repro/internal/feature"
)

func TestGenerateCategoriesDeterministic(t *testing.T) {
	a := GenerateCategories(42, 20, 5, 0.3)
	b := GenerateCategories(42, 20, 5, 0.3)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Variants[0] != b[i].Variants[0] {
			t.Fatalf("category %d differs across identical seeds", i)
		}
	}
	// Different seed produces different recipes.
	c := GenerateCategories(43, 20, 5, 0.3)
	same := 0
	for i := range a {
		if a[i].Variants[0] == c[i].Variants[0] {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical categories")
	}
}

func TestBimodalFraction(t *testing.T) {
	cats := GenerateCategories(1, 40, 8, 0.25)
	bimodal := 0
	for _, c := range cats {
		if c.Bimodal() {
			bimodal++
		}
	}
	if bimodal != 10 {
		t.Errorf("bimodal = %d, want 10", bimodal)
	}
}

func TestThemesAssigned(t *testing.T) {
	cats := GenerateCategories(1, 20, 4, 0)
	for i, c := range cats {
		if c.Theme != i%4 {
			t.Errorf("cat %d theme = %d", i, c.Theme)
		}
	}
}

func TestRenderDeterministicAndSized(t *testing.T) {
	cats := GenerateCategories(7, 5, 5, 0.5)
	img1 := cats[0].Render(99, 32)
	img2 := cats[0].Render(99, 32)
	if !img1.Bounds().Eq(image.Rect(0, 0, 32, 32)) {
		t.Fatalf("bounds %v", img1.Bounds())
	}
	if len(img1.Pix) != len(img2.Pix) {
		t.Fatal("pix length mismatch")
	}
	for i := range img1.Pix {
		if img1.Pix[i] != img2.Pix[i] {
			t.Fatal("same seed rendered different images")
		}
	}
	// Different image seeds give different rasters.
	img3 := cats[0].Render(100, 32)
	diff := 0
	for i := range img1.Pix {
		if img1.Pix[i] != img3.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds rendered identical images")
	}
}

func TestBimodalVariantsVisuallyDistinct(t *testing.T) {
	cats := GenerateCategories(11, 10, 5, 1.0)
	for _, cat := range cats[:3] {
		if !cat.Bimodal() {
			t.Fatal("expected bimodal")
		}
		f0 := feature.ColorMoments(cat.RenderVariant(0, 1, 32))
		f1 := feature.ColorMoments(cat.RenderVariant(1, 1, 32))
		if f0.Dist(f1) < 0.05 {
			t.Errorf("category %s: variants too similar in color space (%v)", cat.Name, f0.Dist(f1))
		}
	}
}

func TestIntraCategoryCoherence(t *testing.T) {
	// Images of one unimodal category must be closer in color-moment
	// space to each other than to images of a different-theme category.
	cats := GenerateCategories(13, 10, 5, 0)
	a, b := cats[0], cats[2] // different themes (0 vs 2)
	fa1 := feature.ColorMoments(a.Render(1, 32))
	fa2 := feature.ColorMoments(a.Render(2, 32))
	fb := feature.ColorMoments(b.Render(3, 32))
	if fa1.Dist(fa2) >= fa1.Dist(fb) {
		t.Errorf("intra %v >= inter %v", fa1.Dist(fa2), fa1.Dist(fb))
	}
}

func TestCollectionLayout(t *testing.T) {
	col := NewCollection(CollectionConfig{Seed: 3, NumCategories: 4, ImagesPerCategory: 10, ImageSize: 16})
	if col.NumImages() != 40 {
		t.Fatalf("NumImages = %d", col.NumImages())
	}
	if col.Label(0) != 0 || col.Label(39) != 3 || col.Label(25) != 2 {
		t.Error("label layout wrong")
	}
	img := col.Render(17)
	if !img.Bounds().Eq(image.Rect(0, 0, 16, 16)) {
		t.Errorf("bounds %v", img.Bounds())
	}
	if col.Theme(0) != col.Categories[0].Theme {
		t.Error("Theme accessor mismatch")
	}
}

func TestCollectionRelated(t *testing.T) {
	col := NewCollection(CollectionConfig{Seed: 3, NumCategories: 8, ImagesPerCategory: 2, Themes: 4})
	// Categories 0 and 4 share theme 0.
	if col.Categories[0].Theme != col.Categories[4].Theme {
		t.Error("0 and 4 should be related")
	}
	if col.Categories[0].Theme == col.Categories[1].Theme {
		t.Error("0 and 1 should not be related")
	}
}

func TestCollectionVariantOf(t *testing.T) {
	col := NewCollection(CollectionConfig{Seed: 5, NumCategories: 2, ImagesPerCategory: 50, BimodalFrac: 1})
	// A fully bimodal collection must actually use both variants.
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[col.VariantOf(i)] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("variants used: %v", seen)
	}
}

func TestRenderPanicsOutOfRange(t *testing.T) {
	col := NewCollection(CollectionConfig{Seed: 1, NumCategories: 1, ImagesPerCategory: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	col.Render(5)
}

func TestPatternString(t *testing.T) {
	if Solid.String() != "solid" || Blobs.String() != "blobs" {
		t.Error("Pattern.String mismatch")
	}
}

func TestAllPatternsRender(t *testing.T) {
	// Every pattern family must render without panicking and produce
	// non-uniform images (except solid, which is uniform up to noise).
	for p := Pattern(0); int(p) < numPatterns; p++ {
		v := Variant{
			BG: hsvToRGBA(30, 0.5, 0.8), FG: hsvToRGBA(200, 0.7, 0.5),
			Pattern: p, Scale: 4, Noise: 0,
		}
		cat := Category{Variants: []Variant{v}}
		img := cat.Render(1, 24)
		if img.Bounds().Dx() != 24 {
			t.Fatalf("pattern %v: bad bounds", p)
		}
	}
}

// TestRenderMatchesReference checks renderVariant byte for byte against
// the SetRGBA-based reference for every pattern, with noise on and off,
// at sizes 1–48, and that both leave the generator in the same state
// (the draw order is unchanged).
func TestRenderMatchesReference(t *testing.T) {
	cats := GenerateCategories(36, 6, 3, 1)
	for p := Pattern(0); int(p) < numPatterns; p++ {
		for ci, cat := range cats {
			v := cat.Variants[len(cat.Variants)-1]
			v.Pattern = p
			if ci%2 == 0 {
				v.Noise = 0
			}
			for size := 1; size <= 48; size++ {
				seed := int64(size*100 + ci)
				rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := renderVariant(v, rng, size), refRenderVariant(v, refRNG, size)
				if got.Rect != want.Rect || got.Stride != want.Stride || !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("%v, noise %v, size %d: rendering differs from the reference", p, v.Noise, size)
				}
				if a, b := rng.Int63(), refRNG.Int63(); a != b {
					t.Fatalf("%v, noise %v, size %d: generator state differs after rendering", p, v.Noise, size)
				}
			}
		}
	}
}

// TestTo8bitMatchesMinMax checks the comparison clamp against the
// math.Min/math.Max form it replaced, across and beyond [0, 255].
func TestTo8bitMatchesMinMax(t *testing.T) {
	xs := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1e300, 1e300}
	for k := -2000; k <= 2000; k++ {
		x := float64(k) / 4
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range xs {
		if got, want := to8bit(x), uint8(math.Round(math.Min(255, math.Max(0, x)))); got != want {
			t.Fatalf("to8bit(%v) = %d, want %d", x, got, want)
		}
	}
}
