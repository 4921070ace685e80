package stat

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

// sameBits treats every NaN as equal to every other NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestCachedQuantilesAreExact: over a grid of (α, p, m) the cached
// entry points return the bits of the uncached root-finders, on the miss
// and on the hit. Weights include non-integers (sums of float scores).
func TestCachedQuantilesAreExact(t *testing.T) {
	n := 0
	for _, alpha := range []float64{0.001, 0.01, 0.05, 0.1, 0.5, 0.9} {
		for _, p := range []float64{1, 2, 3, 9, 16, 37} {
			want := chiSquareQuantile(1-alpha, p, 0)
			for pass := 0; pass < 2; pass++ {
				if got := ChiSquareQuantile(1-alpha, p); !sameBits(got, want) {
					t.Fatalf("χ²(%v, %v) pass %d = %v, uncached %v", 1-alpha, p, pass, got, want)
				}
			}
			for _, m := range []float64{p + 1.5, p + 2, 2*p + 3.25, 40, 97.75, 300, 1e4} {
				want := fQuantile(1-alpha, p, m-p)
				for pass := 0; pass < 2; pass++ {
					if got := FQuantile(1-alpha, p, m-p); !sameBits(got, want) {
						t.Fatalf("F(%v, %v, %v) pass %d = %v, uncached %v", 1-alpha, p, m-p, pass, got, want)
					}
				}
				n++
			}
		}
	}
	if n < 250 {
		t.Fatalf("grid shrank to %d F keys", n)
	}
}

// TestQuantileEdgeArgumentsBypassCache: NaN, p <= 0, p >= 1 and
// non-positive degrees of freedom are answered as before and never reach
// (or fill) the cache.
func TestQuantileEdgeArgumentsBypassCache(t *testing.T) {
	before := ReadQuantileCacheStats()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ got, want float64 }{
		{ChiSquareQuantile(nan, 3), nan}, {ChiSquareQuantile(0.5, 0), nan}, {ChiSquareQuantile(0.5, -2), nan},
		{ChiSquareQuantile(0, 3), 0}, {ChiSquareQuantile(-1, 3), 0},
		{ChiSquareQuantile(1, 3), inf}, {ChiSquareQuantile(7, 3), inf},
		{FQuantile(nan, 3, 9), nan}, {FQuantile(0.5, 0, 9), nan}, {FQuantile(0.5, 3, 0), nan}, {FQuantile(0.5, 3, -1), nan},
		{FQuantile(0, 3, 9), 0}, {FQuantile(-0.1, 3, 9), 0},
		{FQuantile(1, 3, 9), inf}, {FQuantile(1.5, 3, 9), inf},
	} {
		if !sameBits(c.got, c.want) {
			t.Errorf("edge argument: got %v, want %v", c.got, c.want)
		}
	}
	after := ReadQuantileCacheStats()
	if after != before {
		t.Errorf("edge arguments touched the cache: %+v -> %+v", before, after)
	}
	// NaN degrees of freedom are not an edge the functions screen; they
	// must still agree with the uncached path.
	if got, want := FQuantile(0.95, 3, nan), fQuantile(0.95, 3, nan); !sameBits(got, want) {
		t.Errorf("F(0.95, 3, NaN) = %v, uncached %v", got, want)
	}
}

func TestQuantileCacheHitDoesNotAllocate(t *testing.T) {
	ChiSquareQuantile(0.95, 3)
	FQuantile(0.95, 3, 57)
	if a := testing.AllocsPerRun(100, func() {
		ChiSquareQuantile(0.95, 3)
		FQuantile(0.95, 3, 57)
	}); a != 0 {
		t.Fatalf("a cache hit allocates %v times", a)
	}
}

// TestQuantileCacheFixedCapacity: 10⁵ distinct keys fill a cache to its
// fixed capacity and no further, and the table stays under 64 KiB.
func TestQuantileCacheFixedCapacity(t *testing.T) {
	var c quantileCache
	if size := unsafe.Sizeof(c); size > 64<<10 {
		t.Fatalf("cache is %d bytes, bound is 64 KiB", size)
	}
	sum := func(p, d1, d2 float64) float64 { return p + d1 + d2 }
	key := func(i int) float64 { return 4 + float64(i)*0.37 }
	for i := 0; i < 100000; i++ {
		m := key(i)
		if got := c.get(0.95, 3, m, sum); got != 0.95+3+m {
			t.Fatalf("key %d: got %v", i, got)
		}
	}
	if c.stats.Entries != quantileSets*quantileWays || c.stats.Misses != 100000 {
		t.Fatalf("stats after 1e5 distinct keys: %+v, capacity %d", c.stats, quantileSets*quantileWays)
	}
	if c.get(0.95, 3, key(99999), sum); c.stats.Hits != 1 {
		t.Fatalf("newest key was evicted: %+v", c.stats)
	}
}

// TestQuantileCacheConcurrent hammers the shared cache from 16 goroutines
// with overlapping keys (run under -race): every answer must be the
// uncached one.
func TestQuantileCacheConcurrent(t *testing.T) {
	want := make([]float64, 64)
	for i := range want {
		want[i] = fQuantile(0.95, 5, float64(7+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + g) % len(want)
				if got := FQuantile(0.95, 5, float64(7+k)); !sameBits(got, want[k]) {
					t.Errorf("goroutine %d: F(0.95, 5, %d) = %v, uncached %v", g, 7+k, got, want[k])
					return
				}
				// Distinct keys per goroutine keep evictions going meanwhile.
				ChiSquareQuantile(0.5, float64(1+g)+float64(i%200)/7)
			}
		}(g)
	}
	wg.Wait()
}
