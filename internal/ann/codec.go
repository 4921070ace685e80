// Package ann is the approximate-search subsystem: a compact float32
// quantized mirror of the flat vector store plus an HNSW-style
// navigable-small-world graph index over it. The graph navigates the
// quantized vectors (half the memory bandwidth of the float64 store,
// which is exactly what bounds the batch kernels), producing a
// candidate set that is then exactly refined with the full-precision
// adaptive metric — so merged results and all feedback math stay
// bit-exact given the candidates.
package ann

import (
	"fmt"
	"math"

	"repro/internal/index"
)

// Quantize converts one float64 component to its float32 approximation.
//
// Conversion rules (the codec's contract, fuzzed in FuzzCodecRoundTrip):
//   - Rounding is IEEE-754 round-to-nearest-even (Go's float32
//     conversion), so the result is the closest representable float32
//     and |x - float64(Quantize(x))| <= ulp32(x)/2.
//   - NaN and ±Inf inputs are rejected: a non-finite approximation
//     would poison every graph distance it participates in.
//   - Finite inputs whose magnitude rounds past math.MaxFloat32 are
//     rejected too — the conversion would overflow to ±Inf, which is
//     the same poison with a finite excuse.
//   - Magnitudes below the smallest float32 denormal round to a signed
//     zero, and values in the denormal range lose precision gradually;
//     both are accepted (they stay finite and ordered).
func Quantize(x float64) (float32, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("ann: component is not finite (%v)", x)
	}
	f := float32(x)
	if math.IsInf(float64(f), 0) {
		return 0, fmt.Errorf("ann: component %v overflows float32", x)
	}
	return f, nil
}

// quantizeClamped is the query-side variant: navigation centers come
// from feedback arithmetic and are finite by construction, but a center
// component beyond float32 range must not fail the whole search —
// navigation only affects which candidates are found, never their
// exactly-refined distances. Out-of-range magnitudes clamp to
// ±MaxFloat32 (NaN, impossible for a valid metric, maps to 0).
func quantizeClamped(x float64) float32 {
	f := float32(x)
	if math.IsInf(float64(f), 0) {
		if x > 0 {
			return math.MaxFloat32
		}
		return -math.MaxFloat32
	}
	if f != f { // NaN
		return 0
	}
	return f
}

// EncodeRow quantizes one row of dim float64 components into dst,
// which must have length dim. It fails on the first component the
// codec rejects (see Quantize) without reporting how much of dst was
// written — callers treat dst as garbage on error.
func EncodeRow(dst []float32, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("ann: encode dim %d into %d", len(src), len(dst))
	}
	for i, x := range src {
		f, err := Quantize(x)
		if err != nil {
			return fmt.Errorf("ann: component %d: %w", i, err)
		}
		dst[i] = f
	}
	return nil
}

// StoreF32 is the quantized mirror of an index.Store: the same rows in
// the same order, each component narrowed to float32 under the codec's
// conversion rules. It does no internal locking — the owning Index
// serializes Append against readers.
type StoreF32 struct {
	data []float32 // n*dim components, row i at [i*dim, (i+1)*dim)
	dim  int
	n    int
}

// SyncFrom quantizes the store rows appended since the last sync
// (rows [f.Len(), s.Len())). The mirror only ever grows — the store is
// append-only.
func (f *StoreF32) SyncFrom(s *index.Store) error {
	if s.Dim() != f.dim {
		return fmt.Errorf("ann: store dim %d, mirror has %d", s.Dim(), f.dim)
	}
	for id := f.n; id < s.Len(); id++ {
		row := s.Vector(id)
		off := len(f.data)
		f.data = append(f.data, make([]float32, f.dim)...)
		if err := EncodeRow(f.data[off:off+f.dim], row); err != nil {
			f.data = f.data[:off]
			return fmt.Errorf("ann: row %d: %w", id, err)
		}
		f.n++
	}
	return nil
}

// Len returns the number of quantized rows.
func (f *StoreF32) Len() int { return f.n }

// Dim returns the row dimensionality.
func (f *StoreF32) Dim() int { return f.dim }

// Row returns quantized row id as a capacity-capped subslice of the
// contiguous block (aliased, treat as read-only).
func (f *StoreF32) Row(id int) []float32 {
	off := id * f.dim
	return f.data[off : off+f.dim : off+f.dim]
}

// sqDist is the graph's navigation distance: squared Euclidean over
// quantized rows, accumulated in float32. Monotone with Euclidean, so
// candidate ordering is preserved; absolute values are approximate,
// which is fine — every candidate is re-scored exactly afterwards.
func sqDist(a, b []float32) float32 {
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}
