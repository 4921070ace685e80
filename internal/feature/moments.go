package feature

import (
	"image"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/stat"
)

// ColorMomentsDim is the raw color-moment dimensionality. The paper uses
// 3 moments × 3 HSV channels = 9; because the hue mean is a circular
// quantity (any scalar embedding has a discontinuity at the 0°/360° seam,
// which destabilizes retrieval for red-dominated images), this
// implementation encodes the hue mean as its cosine and sine — 10 raw
// values, reduced to 3 by PCA exactly as in the paper.
const ColorMomentsDim = 10

// ColorMoments extracts the color-moment vector:
//
//	[cos μ_H, sin μ_H, σ_H, skew_H, μ_S, σ_S, skew_S, μ_V, σ_V, skew_V]
//
// where the hue dispersion moments are computed on wrapped deviations
// from the dominant hue lobe (see alignHueCircular) and scaled by 1/360,
// so every component lives in a comparable O(1) range before PCA.
func ColorMoments(img *image.RGBA) linalg.Vector {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if b := img.Bounds(); len(s.planes) < 3*b.Dx()*b.Dy() {
		s.planes = make([]float64, 3*b.Dx()*b.Dy())
	}
	hs, ss, vs := hsvPixels(img, s.planes)
	alignHueCircular(hs)
	for i := range hs {
		hs[i] /= 360
	}
	hueMean, hueSD, hueSkew := moments(hs)
	hueMeanDeg := hueMean * 360 // reference + mean deviation, degrees
	rad := hueMeanDeg * math.Pi / 180
	out := make(linalg.Vector, 0, ColorMomentsDim)
	out = append(out, math.Cos(rad), math.Sin(rad), hueSD, hueSkew)
	for _, ch := range [][]float64{ss, vs} {
		mean, sd, skew := moments(ch)
		out = append(out, mean, sd, skew)
	}
	return out
}

// scratch is the working memory of one extraction, recycled through
// scratchPool so that featurizing a collection does not allocate it per
// image.
type scratch struct {
	planes []float64      // ColorMoments' H, S and V planes
	gray   []uint8        // TextureFeatures' luminance plane
	glcm   *linalg.Matrix // TextureFeatures' co-occurrence matrix
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{glcm: linalg.NewMatrix(GLCMLevels, GLCMLevels)}
}}

// moments returns the mean, the population standard deviation and the
// skewness cbrt(E[(x-μ)³]) of xs from one mean and one pass over the
// deviations; reference_test.go holds the three-mean, two-pass form it
// matches bit for bit.
func moments(xs []float64) (mean, sd, skew float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	mean = stat.Mean(xs)
	var s2, s3 float64
	for _, x := range xs {
		d := x - mean
		s2 += d * d
		s3 += d * d * d
	}
	n := float64(len(xs))
	return mean, math.Sqrt(s2 / n), math.Cbrt(s3 / n)
}

// alignHueCircular rewrites the hue samples (degrees) as
// reference + wrappedDeviation, with the deviation in (-180, 180], so
// linear moments of the result are stable across the 0°/360° seam, and
// returns the reference angle.
//
// The reference is NOT the global circular mean: for images with two hue
// populations (subject vs background) the circular mean is ill-defined
// when the populations nearly cancel, which makes the moments jump
// between renditions of the same scene. Instead the reference is the
// dominant hue lobe — the mode of a coarse hue histogram, refined by the
// circular mean of the samples within ±60° of that mode. The dominant
// lobe is stable as long as one hue population holds a plurality.
func alignHueCircular(hs []float64) (reference float64) {
	const bins = 36
	var hist [bins]int
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

	// Refine: circular mean of the dominant lobe only.
	var sinSum, cosSum float64
	for _, h := range hs {
		d := wrap360(h-modeDeg+540) - 180
		if d < -60 || d > 60 {
			continue
		}
		sin, cos := math.Sincos(h * math.Pi / 180)
		sinSum += sin
		cosSum += cos
	}
	ref := modeDeg
	if sinSum != 0 || cosSum != 0 {
		ref = math.Atan2(sinSum, cosSum) * 180 / math.Pi
		if ref < 0 {
			ref += 360
		}
	}
	for i, h := range hs {
		d := wrap360(h-ref+540) - 180
		hs[i] = ref + d
	}
	return ref
}

// wrap360 is math.Mod(a, 360) for a in [0, 1080). Each subtraction is
// exact: a and 360 are multiples of a's ulp and the difference is smaller
// than a, so the result is the exact remainder Mod computes. The hue
// samples and references are in [0, 360], so alignHueCircular's
// arguments lie in (180, 900].
func wrap360(a float64) float64 {
	if a >= 360 {
		a -= 360
	}
	if a >= 360 {
		a -= 360
	}
	return a
}
