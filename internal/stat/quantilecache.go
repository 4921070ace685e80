package stat

import (
	"math"
	"sync"
)

// The χ² and F critical values of the feedback loop are constants of
// (α, p, m) that recur across marked points and sessions, while computing
// one is a bisection over dozens of incomplete-gamma/beta evaluations. The
// quantile cache keeps the value that bisection returned under the exact
// argument bits, so a hit is bit-identical to a recomputation — nothing is
// interpolated. Cluster weights are sums of client-supplied scores, so the
// key space is unbounded; the table is therefore fixed: quantileSets sets of
// quantileWays 32-byte entries (48 KiB), a full set evicting its oldest.
const (
	quantileSetBits = 9
	quantileSets    = 1 << quantileSetBits
	quantileWays    = 3
)

// quantileKey is (p, d1, d2) as float bits; d2 == 0 marks a χ² quantile and
// p == 0 an empty slot (p <= 0 is answered before the cache is consulted).
type quantileKey struct{ p, d1, d2 uint64 }

type quantileEntry struct {
	key quantileKey
	val float64
}

// QuantileCacheStats counts the cache's lookups and the slots it fills.
type QuantileCacheStats struct {
	Hits, Misses int64
	Entries      int
}

type quantileCache struct {
	mu    sync.Mutex
	sets  [quantileSets][quantileWays]quantileEntry
	stats QuantileCacheStats
}

var quantiles quantileCache

// ReadQuantileCacheStats returns the process-wide cache counters.
func ReadQuantileCacheStats() QuantileCacheStats {
	quantiles.mu.Lock()
	defer quantiles.mu.Unlock()
	return quantiles.stats
}

// get returns direct(p, d1, d2), from the cache when it is there.
func (c *quantileCache) get(p, d1, d2 float64, direct func(p, d1, d2 float64) float64) float64 {
	k := quantileKey{math.Float64bits(p), math.Float64bits(d1), math.Float64bits(d2)}
	// Integer-valued floats differ only in their high mantissa bits: mix by
	// multiplication and index by the top bits.
	h := ((k.p*0x9E3779B97F4A7C15^k.d1)*0xBF58476D1CE4E5B9 ^ k.d2) * 0x94D049BB133111EB
	set := &c.sets[h>>(64-quantileSetBits)]
	c.mu.Lock()
	for i := range set {
		if set[i].key == k {
			v := set[i].val
			c.stats.Hits++
			c.mu.Unlock()
			return v
		}
	}
	c.stats.Misses++
	c.mu.Unlock()

	v := direct(p, d1, d2) // unlocked: a miss is tens of microseconds of root-finding

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range set {
		if set[i].key == k { // a concurrent miss stored it first
			return v
		}
	}
	if set[quantileWays-1].key.p == 0 {
		c.stats.Entries++
	}
	copy(set[1:], set[:quantileWays-1])
	set[0] = quantileEntry{k, v}
	return v
}
