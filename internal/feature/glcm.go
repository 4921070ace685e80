package feature

import (
	"image"
	"math"

	"repro/internal/linalg"
)

// TextureDim is the raw co-occurrence texture dimensionality: 16
// Haralick-style statistics (the paper: "energy, inertia, entropy,
// homogeneity, etc"), reduced to 4 with PCA by the retrieval pipeline.
const TextureDim = 16

// GLCMLevels is the gray-level quantization of the co-occurrence matrix.
// The paper counts over 0-255; 32 levels preserve texture discrimination
// while keeping the matrix small enough to extract at collection scale.
const GLCMLevels = 32

// glcmFromGray writes the normalized gray-level co-occurrence matrix of
// the w × h gray plane into m, which is GLCMLevels square: cell (i, j)
// holds the probability that a pixel of quantized level i is adjacent
// (over the four standard offsets — 0°, 45°, 90°, 135° — symmetrized,
// which makes the feature rotation-robust) to a pixel of level j.
func glcmFromGray(m *linalg.Matrix, gray []uint8, w, h int) {
	// pairs[a*L+b] counts each adjacent pair once, as (pixel, neighbour);
	// the matrix is pairs plus its transpose over twice the pair count,
	// each cell an exact integer count divided once.
	var pairs [GLCMLevels * GLCMLevels]uint32
	quant := func(g uint8) uint { return uint(g) * GLCMLevels / 256 }
	for y := 0; y < h; y++ {
		row := gray[y*w : (y+1)*w]
		var next []uint8 // the row below, nil on the last row
		if y+1 < h {
			next = gray[(y+1)*w : (y+2)*w]
		}
		for x := 0; x < w; x++ {
			a := quant(row[x]) * GLCMLevels
			if x+1 < w {
				pairs[a+quant(row[x+1])]++ // 0°
			}
			if next == nil {
				continue
			}
			if x+1 < w {
				pairs[a+quant(next[x+1])]++ // 45°
			}
			pairs[a+quant(next[x])]++ // 90°
			if x > 0 {
				pairs[a+quant(next[x-1])]++ // 135°
			}
		}
	}
	var n uint64
	for _, c := range pairs {
		n += uint64(c)
	}
	if n == 0 {
		clear(m.Data)
		return
	}
	total := float64(2 * n)
	for i := 0; i < GLCMLevels; i++ {
		for j := 0; j < GLCMLevels; j++ {
			m.Data[i*GLCMLevels+j] = float64(pairs[i*GLCMLevels+j]+pairs[j*GLCMLevels+i]) / total
		}
	}
}

// TextureFeatures extracts the 16-D texture vector from the image's
// co-occurrence matrix.
func TextureFeatures(img *image.RGBA) linalg.Vector {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b := img.Bounds()
	s.gray = grayPlane(img, s.gray[:0])
	glcmFromGray(s.glcm, s.gray, b.Dx(), b.Dy())
	return HaralickFeatures(s.glcm)
}

// HaralickFeatures computes 16 co-occurrence statistics from a normalized
// GLCM p: the classical Haralick set used by the MARS texture feature.
//
// Indices (all sums over i, j in [0, L)):
//
//	0  energy (angular second moment)   Σ p²
//	1  inertia / contrast               Σ (i-j)² p
//	2  entropy                          -Σ p ln p
//	3  homogeneity (IDM)                Σ p / (1 + (i-j)²)
//	4  correlation                      (Σ ij·p - μxμy) / (σxσy)
//	5  variance                         Σ (i-μ)² p
//	6  sum average                      Σ_k k · p_{x+y}(k)
//	7  sum variance                     Σ_k (k - sumavg)² p_{x+y}(k)
//	8  sum entropy                      -Σ_k p_{x+y} ln p_{x+y}
//	9  difference average               Σ_k k · p_{x-y}(k)
//	10 difference variance              Σ_k (k - diffavg)² p_{x-y}(k)
//	11 difference entropy               -Σ_k p_{x-y} ln p_{x-y}
//	12 maximum probability              max p
//	13 dissimilarity                    Σ |i-j| p
//	14 cluster shade                    Σ (i+j-μx-μy)³ p
//	15 cluster prominence               Σ (i+j-μx-μy)⁴ p
func HaralickFeatures(p *linalg.Matrix) linalg.Vector {
	l := p.Rows
	f := make(linalg.Vector, TextureDim)

	// Marginals.
	px := make([]float64, l)
	py := make([]float64, l)
	psum := make([]float64, 2*l-1) // p_{x+y}(k), k = i+j
	pdiff := make([]float64, l)    // p_{x-y}(k), k = |i-j|
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			v := p.At(i, j)
			px[i] += v
			py[j] += v
			psum[i+j] += v
			d := i - j
			if d < 0 {
				d = -d
			}
			pdiff[d] += v
		}
	}
	var mux, muy, sx2, sy2 float64
	for i := 0; i < l; i++ {
		mux += float64(i) * px[i]
		muy += float64(i) * py[i]
	}
	for i := 0; i < l; i++ {
		sx2 += (float64(i) - mux) * (float64(i) - mux) * px[i]
		sy2 += (float64(i) - muy) * (float64(i) - muy) * py[i]
	}

	var corrNum float64
	for i := 0; i < l; i++ {
		fi := float64(i)
		for j := 0; j < l; j++ {
			v := p.At(i, j)
			if v == 0 {
				// Zero cells contribute nothing (including to entropy).
				continue
			}
			fj := float64(j)
			d := fi - fj
			f[0] += v * v
			f[1] += d * d * v
			f[2] -= v * math.Log(v)
			f[3] += v / (1 + d*d)
			corrNum += fi * fj * v
			f[5] += (fi - mux) * (fi - mux) * v
			if v > f[12] {
				f[12] = v
			}
			f[13] += math.Abs(d) * v
			cs := fi + fj - mux - muy
			f[14] += cs * cs * cs * v
			f[15] += cs * cs * cs * cs * v
		}
	}
	if sx2 > 0 && sy2 > 0 {
		f[4] = (corrNum - mux*muy) / math.Sqrt(sx2*sy2)
	}

	for k, v := range psum {
		if v == 0 {
			continue
		}
		f[6] += float64(k) * v
		f[8] -= v * math.Log(v)
	}
	for k, v := range psum {
		if v == 0 {
			continue
		}
		d := float64(k) - f[6]
		f[7] += d * d * v
	}
	for k, v := range pdiff {
		if v == 0 {
			continue
		}
		f[9] += float64(k) * v
		f[11] -= v * math.Log(v)
	}
	for k, v := range pdiff {
		if v == 0 {
			continue
		}
		d := float64(k) - f[9]
		f[10] += d * d * v
	}
	return f
}
