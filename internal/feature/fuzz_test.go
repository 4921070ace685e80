package feature

import (
	"image"
	"math"
	"math/rand"
	"testing"
)

// FuzzRGBToHSV checks the HSV conversion's range invariants over the
// whole 24-bit RGB cube sampled by the fuzzer.
func FuzzRGBToHSV(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0))
	f.Add(uint8(255), uint8(255), uint8(255))
	f.Add(uint8(255), uint8(0), uint8(0))
	f.Add(uint8(17), uint8(200), uint8(90))
	f.Fuzz(func(t *testing.T, r, g, b uint8) {
		h, s, v := RGBToHSV(r, g, b)
		if h < 0 || h >= 360 || math.IsNaN(h) {
			t.Fatalf("h = %v out of [0,360)", h)
		}
		if s < 0 || s > 1 || v < 0 || v > 1 {
			t.Fatalf("s = %v, v = %v out of [0,1]", s, v)
		}
		// Value is max(r,g,b)/255 by definition.
		max := r
		if g > max {
			max = g
		}
		if b > max {
			max = b
		}
		if math.Abs(v-float64(max)/255) > 1e-12 {
			t.Fatalf("v = %v, want %v", v, float64(max)/255)
		}
	})
}

// FuzzColorMoments checks that the RGBA kernels match the image.Image
// reference bit for bit on a random sub-rectangle of a random image (at
// most 32 × 32, a few flat colors with per-pixel perturbation), and never
// produce non-finite components.
func FuzzColorMoments(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(0), uint8(0), uint8(4), uint8(4))
	f.Add(int64(2), uint8(32), uint8(7), uint8(3), uint8(1), uint8(20), uint8(6))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, w, h, x0, y0, x1, y1 uint8) {
		rng := rand.New(rand.NewSource(seed))
		bounds := image.Rect(-3, 5, -3+1+int(w)%32, 5+1+int(h)%32)
		img := randomRGBA(rng, bounds)
		r := image.Rect(bounds.Min.X+int(x0)%bounds.Dx(), bounds.Min.Y+int(y0)%bounds.Dy(),
			bounds.Min.X+int(x1)%(bounds.Dx()+1), bounds.Min.Y+int(y1)%(bounds.Dy()+1))
		sub := img.SubImage(r).(*image.RGBA)
		cm, tex := ColorMoments(sub), TextureFeatures(sub)
		if want := refColorMoments(sub); !sameBits(cm, want) {
			t.Fatalf("color moments of %v in %v:\n got  %v\n want %v", r, bounds, cm, want)
		}
		if want := refTextureFeatures(sub); !sameBits(tex, want) {
			t.Fatalf("texture of %v in %v:\n got  %v\n want %v", r, bounds, tex, want)
		}
		for i, v := range append(cm, tex...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("component %d is %v", i, v)
			}
		}
	})
}
