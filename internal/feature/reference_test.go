package feature

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stat"
)

// The reference extractors below are the image.Image-based code the
// RGBA kernels replaced, kept verbatim (renamed with a ref prefix) as the
// bit-for-bit oracle of TestFeaturesMatchReference, TestRGBToHSVExhaustive
// and FuzzColorMoments.

func refRGBToHSV(r, g, b uint8) (h, s, v float64) {
	rf, gf, bf := float64(r)/255, float64(g)/255, float64(b)/255
	max := math.Max(rf, math.Max(gf, bf))
	min := math.Min(rf, math.Min(gf, bf))
	v = max
	delta := max - min
	if max > 0 {
		s = delta / max
	}
	if delta == 0 {
		return 0, s, v
	}
	switch max {
	case rf:
		h = 60 * math.Mod((gf-bf)/delta, 6)
	case gf:
		h = 60 * ((bf-rf)/delta + 2)
	default:
		h = 60 * ((rf-gf)/delta + 4)
	}
	if h < 0 {
		h += 360
	}
	return h, s, v
}

func refHSVPixels(img image.Image) (hs, ss, vs []float64) {
	b := img.Bounds()
	n := b.Dx() * b.Dy()
	hs = make([]float64, 0, n)
	ss = make([]float64, 0, n)
	vs = make([]float64, 0, n)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			h, s, v := refRGBToHSV(uint8(r>>8), uint8(g>>8), uint8(bl>>8))
			hs = append(hs, h)
			ss = append(ss, s)
			vs = append(vs, v)
		}
	}
	return hs, ss, vs
}

func refGray(img image.Image) ([]uint8, int, int) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	out := make([]uint8, 0, w*h)
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			lum := 0.299*float64(r>>8) + 0.587*float64(g>>8) + 0.114*float64(bl>>8)
			out = append(out, uint8(lum+0.5))
		}
	}
	return out, w, h
}

func refColorMoments(img image.Image) linalg.Vector {
	hs, ss, vs := refHSVPixels(img)
	refAlignHueCircular(hs)
	for i := range hs {
		hs[i] /= 360
	}
	hueMeanDeg := stat.Mean(hs) * 360
	rad := hueMeanDeg * math.Pi / 180
	out := make(linalg.Vector, 0, ColorMomentsDim)
	out = append(out, math.Cos(rad), math.Sin(rad), refStdDev(hs), refSkewness(hs))
	for _, ch := range [][]float64{ss, vs} {
		out = append(out, stat.Mean(ch), refStdDev(ch), refSkewness(ch))
	}
	return out
}

// refStdDev is the population standard deviation of xs.
func refStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := stat.Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// refSkewness is the signed cube root of the third central moment of xs,
// the convention of Stricker & Orengo's color moments:
// s = cbrt(E[(x-μ)³]).
func refSkewness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := stat.Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d * d
	}
	return math.Cbrt(s / float64(len(xs)))
}

func TestSkewness(t *testing.T) {
	near := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
		}
	}
	near("StdDev", refStdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2, 1e-15)
	if refSkewness(nil) != 0 {
		t.Error("Skewness of empty input must be 0")
	}
	// Symmetric data has zero third moment.
	near("Skewness symmetric", refSkewness([]float64{-1, 0, 1}), 0, 1e-15)
	// Right-skewed data has positive skewness.
	if s := refSkewness([]float64{0, 0, 0, 10}); s <= 0 {
		t.Errorf("right-skewed data must have positive skewness, got %v", s)
	}
	// Shift invariance: skew(x + c) = skew(x).
	xs := []float64{1, 2, 2, 3, 9}
	shifted := make([]float64, len(xs))
	for i, x := range xs {
		shifted[i] = x + 100
	}
	near("Skewness shift-invariant", refSkewness(shifted), refSkewness(xs), 1e-9)
}

func refAlignHueCircular(hs []float64) (reference float64) {
	const bins = 36
	var hist [bins]float64
	for _, h := range hs {
		b := int(h / (360 / bins))
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	mode := 0
	for b := 1; b < bins; b++ {
		if hist[b] > hist[mode] {
			mode = b
		}
	}
	modeDeg := (float64(mode) + 0.5) * 360 / bins

	var sinSum, cosSum float64
	for _, h := range hs {
		d := math.Mod(h-modeDeg+540, 360) - 180
		if d < -60 || d > 60 {
			continue
		}
		r := h * math.Pi / 180
		sinSum += math.Sin(r)
		cosSum += math.Cos(r)
	}
	ref := modeDeg
	if sinSum != 0 || cosSum != 0 {
		ref = math.Atan2(sinSum, cosSum) * 180 / math.Pi
		if ref < 0 {
			ref += 360
		}
	}
	for i, h := range hs {
		d := math.Mod(h-ref+540, 360) - 180
		hs[i] = ref + d
	}
	return ref
}

func refGLCMFromGray(gray []uint8, w, h int) *linalg.Matrix {
	m := linalg.NewMatrix(GLCMLevels, GLCMLevels)
	quant := func(g uint8) int { return int(g) * GLCMLevels / 256 }
	var total float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := quant(gray[y*w+x])
			for _, off := range [4][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}} {
				nx, ny := x+off[0], y+off[1]
				if nx < 0 || nx >= w || ny >= h {
					continue
				}
				b := quant(gray[ny*w+nx])
				m.Data[a*GLCMLevels+b]++
				m.Data[b*GLCMLevels+a]++
				total += 2
			}
		}
	}
	if total > 0 {
		for i := range m.Data {
			m.Data[i] /= total
		}
	}
	return m
}

func refTextureFeatures(img image.Image) linalg.Vector {
	return HaralickFeatures(refGLCMFromGray(refGray(img)))
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomRGBA fills r with a few flat colors, each pixel perturbed with
// probability one half, and random alpha.
func randomRGBA(rng *rand.Rand, r image.Rectangle) *image.RGBA {
	img := image.NewRGBA(r)
	palette := make([]color.RGBA, 1+rng.Intn(4))
	for i := range palette {
		palette[i] = color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			c := palette[rng.Intn(len(palette))]
			if rng.Intn(2) == 0 {
				c.R += uint8(rng.Intn(9))
				c.B -= uint8(rng.Intn(9))
			}
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

// TestRGBToHSVExhaustive checks every 24-bit RGB triple: the comparison
// form of max/min and the dropped math.Mod give the reference's bits.
func TestRGBToHSVExhaustive(t *testing.T) {
	bad := 0
	for c := 0; c < 1<<24; c++ {
		r, g, b := uint8(c>>16), uint8(c>>8), uint8(c)
		h, s, v := RGBToHSV(r, g, b)
		rh, rs, rv := refRGBToHSV(r, g, b)
		if math.Float64bits(h) != math.Float64bits(rh) || math.Float64bits(s) != math.Float64bits(rs) ||
			math.Float64bits(v) != math.Float64bits(rv) {
			if bad++; bad <= 5 {
				t.Errorf("RGBToHSV(%d,%d,%d) = %v,%v,%v, reference %v,%v,%v", r, g, b, h, s, v, rh, rs, rv)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of 2^24 triples differ", bad)
	}
}

// TestWrap360IsMod checks wrap360 against math.Mod(a, 360) on generated
// a in [0, 1080) and one ulp either side of every multiple of 360 there.
func TestWrap360IsMod(t *testing.T) {
	var as []float64
	for _, m := range []float64{0, 360, 720, 1080} {
		as = append(as, m, math.Nextafter(m, -1), math.Nextafter(m, 2000))
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 1_000_000; i++ {
		as = append(as, rng.Float64()*1080)
	}
	// The arguments alignHueCircular forms: h - ref + 540.
	for i := 0; i < 1_000_000; i++ {
		h, ref := rng.Float64()*360, rng.Float64()*360
		as = append(as, h-ref+540)
	}
	for _, a := range as {
		if a < 0 || a >= 1080 {
			continue
		}
		if got, want := wrap360(a), math.Mod(a, 360); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrap360(%v) = %v, math.Mod = %v", a, got, want)
		}
	}
}

// TestHueSincosExhaustive checks, for the hue of every 24-bit RGB triple,
// that the lobe refinement's math.Sincos gives the bits of the
// reference's separate math.Sin and math.Cos.
func TestHueSincosExhaustive(t *testing.T) {
	for c := 0; c < 1<<24; c++ {
		h, _, _ := RGBToHSV(uint8(c>>16), uint8(c>>8), uint8(c))
		r := h * math.Pi / 180
		sin, cos := math.Sincos(r)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(r)) || math.Float64bits(cos) != math.Float64bits(math.Cos(r)) {
			t.Fatalf("hue %v: Sincos = %v, %v; Sin, Cos = %v, %v", h, sin, cos, math.Sin(r), math.Cos(r))
		}
	}
}
