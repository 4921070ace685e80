// Package imagegen renders the synthetic image collection that stands in
// for the paper's Corel/Mantan 30,000-image set (see DESIGN.md for the
// substitution rationale). Each category is a deterministic recipe —
// color palette, texture pattern, pattern scale, noise level — and each
// image is a real RGB raster rendered from the recipe with per-image
// random variation. A configurable fraction of categories is *bimodal*:
// their images come in two visually different variants (e.g. the same
// subject on a light-green vs dark-blue background), reproducing the
// disjoint-cluster structure of the paper's bird example (Example 1) that
// motivates disjunctive queries.
package imagegen

import (
	"fmt"
	"image"
	"image/color"
	"math"
	"math/rand"
)

// Pattern enumerates the texture families categories draw from.
type Pattern int

const (
	// Solid fills with the background color only (plus noise).
	Solid Pattern = iota
	// HStripes draws horizontal foreground stripes.
	HStripes
	// VStripes draws vertical foreground stripes.
	VStripes
	// Checker draws a checkerboard.
	Checker
	// Gradient blends background to foreground top-to-bottom.
	Gradient
	// Blobs scatters filled foreground circles.
	Blobs
	// Diagonal draws diagonal foreground bands.
	Diagonal
	numPatterns int = iota
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	names := [...]string{"solid", "hstripes", "vstripes", "checker", "gradient", "blobs", "diagonal"}
	if int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Variant is one visual mode of a category.
type Variant struct {
	BG, FG  color.RGBA
	Pattern Pattern
	Scale   int     // pattern period in pixels
	Noise   float64 // per-channel noise stddev in [0, 1] intensity units
}

// Category is a recipe for a labelled image class. Bimodal categories
// hold two variants that share the foreground subject but differ in
// background — the feature-space-disjoint case Qcluster targets.
type Category struct {
	ID       int
	Name     string
	Theme    int // supercategory; images from the same theme are "related"
	Variants []Variant
}

// Bimodal reports whether the category has two visual modes.
func (c Category) Bimodal() bool { return len(c.Variants) > 1 }

// themePalettes gives each theme a distinctive base hue range so
// same-theme categories are closer in color space than cross-theme ones
// (the paper's "related categories such as flowers and plants").
var themeNames = []string{
	"birds", "flowers", "sunsets", "ocean", "forest",
	"mountains", "buildings", "textiles", "deserts", "night",
}

// GenerateCategories builds n deterministic category recipes spread over
// the given number of themes. bimodalFrac of them (rounded down) get a
// second variant with a contrasting background.
func GenerateCategories(seed int64, n, themes int, bimodalFrac float64) []Category {
	if themes <= 0 {
		themes = len(themeNames)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := make([]Category, n)
	numBimodal := int(float64(n) * bimodalFrac)
	for i := range cats {
		theme := i % themes
		// Theme anchors the hue; category index perturbs it.
		baseHue := float64(theme)/float64(themes)*360 + rng.Float64()*25
		bgS := 0.35 + 0.4*rng.Float64()
		bgV := 0.45 + 0.45*rng.Float64()
		bg := hsvToRGBA(math.Mod(baseHue, 360), bgS, bgV)
		// The foreground hue sits 90-140° from the background: clearly
		// contrasting, but away from the 180° antipode where the wrapped
		// hue deviation of the color-moment feature changes sign between
		// renditions of the same scene.
		fg := hsvToRGBA(math.Mod(baseHue+90+50*rng.Float64(), 360), 0.5+0.4*rng.Float64(), 0.35+0.55*rng.Float64())
		v := Variant{
			BG:      bg,
			FG:      fg,
			Pattern: Pattern(rng.Intn(numPatterns)),
			Scale:   2 + rng.Intn(9),
			Noise:   0.01 + 0.02*rng.Float64(),
		}
		name := fmt.Sprintf("%s-%02d", themeName(theme), i/themes)
		cats[i] = Category{ID: i, Name: name, Theme: theme, Variants: []Variant{v}}
		if i < numBimodal {
			// Complex category: 1-3 extra variants — the same foreground
			// subject and pattern on clearly different backgrounds (the
			// paper's "bird on a light-green background vs bird on a
			// dark-blue background", Example 1, generalized to the
			// multi-modal categories real Corel classes exhibit). Each
			// alternate background keeps a nearby hue (foreign categories
			// own the distant hue bands, so sibling variants stay
			// discoverable from an initial query on any one variant) but
			// takes saturation/value levels far from every existing
			// variant, so the category forms several distinct clusters
			// with foreign same-hue categories' typical S/V levels lying
			// between them.
			// Alternate backgrounds sit at the extremes of the
			// saturation/value square, while ordinary categories (and
			// this category's own first variant) occupy the middle band
			// — so the convex hull of a complex category's modes
			// contains the typical S/V levels of foreign same-hue
			// categories. A single convex contour spanning the modes
			// (query-point movement, query expansion) must sweep that
			// foreign middle; disjoint per-mode contours need not.
			extra := 1 + rng.Intn(3)
			corners := [4][2]float64{{0.2, 0.2}, {0.2, 0.9}, {0.9, 0.2}, {0.9, 0.9}}
			order := rng.Perm(4)
			for e := 0; e < extra && e < 4; e++ {
				c := corners[order[e]]
				alt := v
				altHue := math.Mod(baseHue+360-12+24*rng.Float64(), 360)
				alt.BG = hsvToRGBA(altHue,
					clamp01(c[0]+0.05*rng.NormFloat64()),
					clamp01(c[1]+0.05*rng.NormFloat64()))
				cats[i].Variants = append(cats[i].Variants, alt)
			}
		}
	}
	return cats
}

func themeName(t int) string { return themeNames[t%len(themeNames)] }

// hsvToRGBA converts HSV (h in degrees) to an opaque RGBA color.
func hsvToRGBA(h, s, v float64) color.RGBA {
	c := v * s
	hp := h / 60
	x := c * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = c, x, 0
	case hp < 2:
		r, g, b = x, c, 0
	case hp < 3:
		r, g, b = 0, c, x
	case hp < 4:
		r, g, b = 0, x, c
	case hp < 5:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	m := v - c
	to8 := func(f float64) uint8 { return uint8(math.Round(255 * clamp01(f+m))) }
	return color.RGBA{to8(r), to8(g), to8(b), 255}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Render draws one image of the category. imageSeed selects the per-image
// variation (and, for bimodal categories, the variant) deterministically.
func (c Category) Render(imageSeed int64, size int) *image.RGBA {
	rng := rand.New(rand.NewSource(imageSeed))
	variant := c.Variants[rng.Intn(len(c.Variants))]
	return renderVariant(variant, rng, size)
}

// RenderVariant draws one image of a specific variant (used by tests and
// the bimodality demo).
func (c Category) RenderVariant(variantIdx int, imageSeed int64, size int) *image.RGBA {
	rng := rand.New(rand.NewSource(imageSeed))
	return renderVariant(c.Variants[variantIdx], rng, size)
}

// VariantFor reports which variant Render would pick for imageSeed.
func (c Category) VariantFor(imageSeed int64) int {
	rng := rand.New(rand.NewSource(imageSeed))
	return rng.Intn(len(c.Variants))
}

func renderVariant(v Variant, rng *rand.Rand, size int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, size, size))
	// Per-image jitter of palette and scale keeps intra-category variety
	// while leaving each variant a compact cluster in feature space.
	bg := jitterColor(v.BG, rng, 7)
	fg := jitterColor(v.FG, rng, 7)
	scale := v.Scale + rng.Intn(3) - 1
	if scale < 1 {
		scale = 1
	}
	phase := rng.Intn(scale * 2)

	// Pattern fill, one row of Pix at a time. band[k] is the stripe
	// index of coordinate k (or of x+y, for diagonals). Foreground bands
	// cover one period in three, so the background hue always holds a
	// clear plurality — which keeps the dominant-lobe hue reference of
	// the color-moment feature stable across renditions of the same
	// category.
	band := make([]int, 2*size)
	for k := range band {
		band[k] = (k + phase) / scale
	}
	for y := 0; y < size; y++ {
		row := img.Pix[y*img.Stride : y*img.Stride+4*size]
		rowBG := bg
		if v.Pattern == Gradient {
			rowBG = lerpColor(bg, fg, float64(y)/float64(size-1))
		}
		for x := 0; x < size; x++ {
			c := rowBG
			switch v.Pattern {
			case HStripes:
				if band[y]%3 == 0 {
					c = fg
				}
			case VStripes:
				if band[x]%3 == 0 {
					c = fg
				}
			case Checker:
				if (band[x]+band[y])%3 == 0 {
					c = fg
				}
			case Diagonal:
				if band[x+y]%3 == 0 {
					c = fg
				}
			}
			row[4*x], row[4*x+1], row[4*x+2], row[4*x+3] = c.R, c.G, c.B, c.A
		}
	}
	if v.Pattern == Blobs {
		// A fixed blob count and narrow radius band keep the foreground
		// coverage — and therefore the color moments — coherent within a
		// category while the positions still vary per image.
		const nBlobs = 5
		for i := 0; i < nBlobs; i++ {
			cx, cy := rng.Intn(size), rng.Intn(size)
			r := size/8 + rng.Intn(max(size/16, 1)+1)
			drawDisc(img, cx, cy, r, fg)
		}
	}
	// Per-pixel Gaussian noise, R then G then B, pixels in row order.
	if v.Noise > 0 {
		sigma := v.Noise * 255
		for i := 0; i+2 < len(img.Pix); i += 4 {
			img.Pix[i] = addNoise(img.Pix[i], rng, sigma)
			img.Pix[i+1] = addNoise(img.Pix[i+1], rng, sigma)
			img.Pix[i+2] = addNoise(img.Pix[i+2], rng, sigma)
		}
	}
	return img
}

func jitterColor(c color.RGBA, rng *rand.Rand, amp float64) color.RGBA {
	j := func(v uint8) uint8 { return to8bit(float64(v) + rng.NormFloat64()*amp) }
	return color.RGBA{j(c.R), j(c.G), j(c.B), 255}
}

func lerpColor(a, b color.RGBA, t float64) color.RGBA {
	l := func(x, y uint8) uint8 {
		return uint8(math.Round(float64(x) + t*(float64(y)-float64(x))))
	}
	return color.RGBA{l(a.R, b.R), l(a.G, b.G), l(a.B, b.B), 255}
}

func addNoise(v uint8, rng *rand.Rand, sigma float64) uint8 {
	return to8bit(float64(v) + rng.NormFloat64()*sigma)
}

// to8bit clamps x to [0, 255] and rounds it to an 8-bit level. The
// comparisons give the level math.Min(255, math.Max(0, x)) would.
func to8bit(x float64) uint8 {
	if x < 0 {
		x = 0
	} else if x > 255 {
		x = 255
	}
	return uint8(math.Round(x))
}

func drawDisc(img *image.RGBA, cx, cy, r int, c color.RGBA) {
	b := img.Bounds()
	for y := cy - r; y <= cy+r; y++ {
		if y < b.Min.Y || y >= b.Max.Y {
			continue
		}
		for x := cx - r; x <= cx+r; x++ {
			if x < b.Min.X || x >= b.Max.X {
				continue
			}
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				img.SetRGBA(x, y, c)
			}
		}
	}
}
