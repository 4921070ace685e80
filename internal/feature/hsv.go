// Package feature extracts the paper's two visual features from images:
// HSV color moments (mean, standard deviation, skewness per channel — 9
// values, reduced to 3 by PCA in the retrieval pipeline) and gray-level
// co-occurrence matrix texture (16 Haralick-style statistics, reduced to
// 4 by PCA). Both read *image.RGBA rasters straight from Pix, row by row;
// the public wrappers in package qcluster convert any other image once.
package feature

import "image"

// RGBToHSV converts 8-bit RGB to HSV with h in [0, 360), s and v in
// [0, 1]. The paper uses HSV "because of its perceptual uniformity of
// color".
func RGBToHSV(r, g, b uint8) (h, s, v float64) {
	rf, gf, bf := float64(r)/255, float64(g)/255, float64(b)/255
	// The channels are finite and ≥ +0, so plain comparisons pick the
	// same values math.Max and math.Min would.
	max, min := rf, rf
	if gf > max {
		max = gf
	}
	if bf > max {
		max = bf
	}
	if gf < min {
		min = gf
	}
	if bf < min {
		min = bf
	}
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
		// |gf-bf| ≤ delta, and rounding is monotone, so the quotient
		// lies in [-1, 1], where math.Mod(·, 6) is the identity.
		h = 60 * ((gf - bf) / delta)
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

// rows calls f with each row of img's bounds as a slice of Pix, four
// bytes (R, G, B, A) per pixel, top to bottom.
func rows(img *image.RGBA, f func(row []uint8)) {
	b := img.Bounds()
	n := 4 * b.Dx()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		i := img.PixOffset(b.Min.X, y)
		f(img.Pix[i : i+n : i+n])
	}
}

// hsvPixels walks the image once and returns the three channel planes,
// cut from planes, which holds at least three values per pixel.
func hsvPixels(img *image.RGBA, planes []float64) (hs, ss, vs []float64) {
	b := img.Bounds()
	n := b.Dx() * b.Dy()
	hs, ss, vs = planes[:n:n], planes[n:2*n:2*n], planes[2*n:3*n]
	i := 0
	rows(img, func(row []uint8) {
		for x := 0; x+2 < len(row); x += 4 {
			hs[i], ss[i], vs[i] = RGBToHSV(row[x], row[x+1], row[x+2])
			i++
		}
	})
	return hs, ss, vs
}

// grayPlane appends the luminance plane of img to out.
func grayPlane(img *image.RGBA, out []uint8) []uint8 {
	rows(img, func(row []uint8) {
		for x := 0; x+2 < len(row); x += 4 {
			lum := 0.299*float64(row[x]) + 0.587*float64(row[x+1]) + 0.114*float64(row[x+2])
			out = append(out, uint8(lum+0.5))
		}
	})
	return out
}
