package ann

import (
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/linalg"
)

func TestQuantizeRules(t *testing.T) {
	cases := []struct {
		in     float64
		wantOK bool
	}{
		{0, true},
		{math.Copysign(0, -1), true},
		{1.5, true},
		{-1e30, true},
		{math.MaxFloat32, true},
		{-math.MaxFloat32, true},
		{5e-324, true}, // float64 denormal → signed zero
		{float64(math.SmallestNonzeroFloat32) / 2, true}, // float32 denormal range
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{math.MaxFloat64, false}, // overflows float32
		{-math.MaxFloat64, false},
		{3.5e38, false}, // just past MaxFloat32
	}
	for _, c := range cases {
		f, err := Quantize(c.in)
		if c.wantOK && err != nil {
			t.Errorf("Quantize(%v) unexpected error: %v", c.in, err)
		}
		if !c.wantOK && err == nil {
			t.Errorf("Quantize(%v) = %v, want rejection", c.in, f)
		}
		if err == nil && math.IsInf(float64(f), 0) {
			t.Errorf("Quantize(%v) produced non-finite %v", c.in, f)
		}
	}
	// Round-to-nearest-even: the midpoint between two adjacent float32s
	// rounds to the even mantissa.
	if got := float32(1 + math.Pow(2, -24)); got != 1 {
		t.Skip("platform float conversion is not round-to-nearest-even")
	}
	f, err := Quantize(1 + math.Pow(2, -24))
	if err != nil || f != 1 {
		t.Errorf("midpoint rounding: got %v (%v), want 1", f, err)
	}
}

func TestEncodeRowDimMismatch(t *testing.T) {
	dst := make([]float32, 3)
	if err := EncodeRow(dst, []float64{1, 2}); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}

func TestStoreF32Sync(t *testing.T) {
	store, err := index.NewStore([]linalg.Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	f := &StoreF32{dim: store.Dim()}
	if err := f.SyncFrom(store); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 || f.Dim() != 2 {
		t.Fatalf("len/dim = %d/%d", f.Len(), f.Dim())
	}
	if _, err := store.Append(linalg.Vector{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.SyncFrom(store); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 || f.Row(2)[0] != 5 || f.Row(2)[1] != 6 {
		t.Fatalf("sync produced %v (len %d)", f.Row(2), f.Len())
	}
}

// FuzzCodecRoundTrip fuzzes the codec contract: accepted values
// round-trip within half a float32 ulp and never produce non-finite
// approximations; rejected values are exactly the non-finite inputs and
// float32-overflowing magnitudes. Denormals, signed zeros and underflow
// to zero are exercised by the seed corpus.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(0.0)
	f.Add(math.Copysign(0, -1))
	f.Add(1.0 + math.Pow(2, -24)) // float32 rounding midpoint
	f.Add(5e-324)                 // smallest float64 denormal
	f.Add(float64(math.SmallestNonzeroFloat32))
	f.Add(float64(math.SmallestNonzeroFloat32) / 3)
	f.Add(math.MaxFloat32)
	f.Add(3.5e38)
	f.Add(math.MaxFloat64)
	f.Add(math.Inf(1))
	f.Add(math.NaN())
	f.Fuzz(func(t *testing.T, x float64) {
		q, err := Quantize(x)
		finite := !math.IsNaN(x) && !math.IsInf(x, 0)
		fits := finite && !math.IsInf(float64(float32(x)), 0)
		if fits != (err == nil) {
			t.Fatalf("Quantize(%v): err=%v, want rejection=%v", x, err, !fits)
		}
		if err != nil {
			return
		}
		if math.IsNaN(float64(q)) || math.IsInf(float64(q), 0) {
			t.Fatalf("Quantize(%v) = %v is not finite", x, q)
		}
		// Round-trip: widening back is exact, and the quantization error
		// is bounded by half an ulp of the float32 neighborhood.
		back := float64(q)
		if x == 0 {
			if back != 0 {
				t.Fatalf("zero did not round-trip: %v", back)
			}
			return
		}
		// Go's conversion is the correctly rounded result, so re-quantizing
		// the widened value must be a fixed point.
		q2, err := Quantize(back)
		if err != nil || q2 != q {
			t.Fatalf("re-quantize(%v) = %v (%v), want fixed point %v", back, q2, err, q)
		}
		// Error bound: |x - back| <= ulp(x@32)/2. math.Nextafter32 gives
		// the neighborhood ulp.
		ulp := math.Abs(float64(math.Nextafter32(q, math.MaxFloat32)) - float64(q))
		if diff := math.Abs(x - back); diff > ulp {
			t.Fatalf("quantization error %g exceeds ulp %g for %v", diff, ulp, x)
		}
	})
}
