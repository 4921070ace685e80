package synth

import "math/rand"

// Each builder fixes its draw order — row by row, component by component
// — so the same rng state always gives the same bits, and a prefix of a
// Gaussian draw is the same whatever n is. The type parameter lets a
// caller take [][]float64 or []linalg.Vector without a conversion.

// Gaussian draws n vectors of dim components, each an independent
// N(0, sigma²) draw.
func Gaussian[V ~[]float64](rng *rand.Rand, n, dim int, sigma float64) []V {
	out := make([]V, n)
	for i := range out {
		v := make(V, dim)
		for d := range v {
			v[d] = rng.NormFloat64() * sigma
		}
		out[i] = v
	}
	return out
}

// Mixture draws cats blocks of perCat vectors. A block first draws its
// centre, each component N(0, scale²), then its members, each component
// centre + N(0, 1). Block c holds ids [c·perCat, (c+1)·perCat), and
// labels[i] is the block of vector i.
func Mixture[V ~[]float64](rng *rand.Rand, cats, perCat, dim int, scale float64) (vectors []V, labels []int) {
	vectors = make([]V, 0, cats*perCat)
	labels = make([]int, 0, cats*perCat)
	centre := make([]float64, dim)
	for c := 0; c < cats; c++ {
		for d := range centre {
			centre[d] = rng.NormFloat64() * scale
		}
		for i := 0; i < perCat; i++ {
			v := make(V, dim)
			for d := range v {
				v[d] = centre[d] + rng.NormFloat64()
			}
			vectors = append(vectors, v)
			labels = append(labels, c)
		}
	}
	return vectors, labels
}

// Blob is a hand-placed Gaussian blob: N points labelled Label, each
// component Center[d] + Spread·N(0, 1).
type Blob struct {
	Label  int
	N      int
	Center []float64
	Spread float64
}

// Blobs draws the blobs in the order given.
func Blobs[V ~[]float64](rng *rand.Rand, blobs ...Blob) (vectors []V, labels []int) {
	for _, b := range blobs {
		for i := 0; i < b.N; i++ {
			v := make(V, len(b.Center))
			for d, c := range b.Center {
				v[d] = c + b.Spread*rng.NormFloat64()
			}
			vectors = append(vectors, v)
			labels = append(labels, b.Label)
		}
	}
	return vectors, labels
}
