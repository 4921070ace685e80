package imagegen

import (
	"image"
	"image/color"
	"math"
	"math/rand"
)

// refRenderVariant is the SetRGBA-based renderer the Pix loops replaced,
// kept verbatim (renamed with a ref prefix, with its private helpers) as
// the byte-for-byte oracle of TestRenderMatchesReference.
func refRenderVariant(v Variant, rng *rand.Rand, size int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, size, size))
	bg := refJitterColor(v.BG, rng, 7)
	fg := refJitterColor(v.FG, rng, 7)
	scale := v.Scale + rng.Intn(3) - 1
	if scale < 1 {
		scale = 1
	}
	phase := rng.Intn(scale * 2)

	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			var on bool
			switch v.Pattern {
			case Solid:
				on = false
			case HStripes:
				on = ((y+phase)/scale)%3 == 0
			case VStripes:
				on = ((x+phase)/scale)%3 == 0
			case Checker:
				on = (((x+phase)/scale)+((y+phase)/scale))%3 == 0
			case Diagonal:
				on = ((x+y+phase)/scale)%3 == 0
			case Gradient:
				t := float64(y) / float64(size-1)
				img.SetRGBA(x, y, refLerpColor(bg, fg, t))
				continue
			case Blobs:
				on = false
			}
			if on {
				img.SetRGBA(x, y, fg)
			} else {
				img.SetRGBA(x, y, bg)
			}
		}
	}
	if v.Pattern == Blobs {
		const nBlobs = 5
		for i := 0; i < nBlobs; i++ {
			cx, cy := rng.Intn(size), rng.Intn(size)
			r := size/8 + rng.Intn(max(size/16, 1)+1)
			refDrawDisc(img, cx, cy, r, fg)
		}
	}
	if v.Noise > 0 {
		sigma := v.Noise * 255
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				px := img.RGBAAt(x, y)
				px.R = refAddNoise(px.R, rng, sigma)
				px.G = refAddNoise(px.G, rng, sigma)
				px.B = refAddNoise(px.B, rng, sigma)
				img.SetRGBA(x, y, px)
			}
		}
	}
	return img
}

func refJitterColor(c color.RGBA, rng *rand.Rand, amp float64) color.RGBA {
	j := func(v uint8) uint8 {
		x := float64(v) + rng.NormFloat64()*amp
		return uint8(math.Round(math.Min(255, math.Max(0, x))))
	}
	return color.RGBA{j(c.R), j(c.G), j(c.B), 255}
}

func refLerpColor(a, b color.RGBA, t float64) color.RGBA {
	l := func(x, y uint8) uint8 {
		return uint8(math.Round(float64(x) + t*(float64(y)-float64(x))))
	}
	return color.RGBA{l(a.R, b.R), l(a.G, b.G), l(a.B, b.B), 255}
}

func refAddNoise(v uint8, rng *rand.Rand, sigma float64) uint8 {
	x := float64(v) + rng.NormFloat64()*sigma
	return uint8(math.Round(math.Min(255, math.Max(0, x))))
}

func refDrawDisc(img *image.RGBA, cx, cy, r int, c color.RGBA) {
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
