// Package obs is the observability layer under the retrieval pipeline:
// a dependency-free, concurrency-safe metrics registry (atomic counters,
// gauges and fixed-bucket histograms), a lightweight span/event tracer
// behind a pluggable Sink, and an optional debug HTTP server exposing
// the registry as expvar-style JSON, Prometheus text format and
// net/http/pprof.
//
// The package is built for an instrumented hot path: every metric write
// is a handful of atomic operations with no allocation and no locking,
// and the tracer is a strict no-op (nil span, nil sink) when disabled,
// so instrumented code pays nothing until someone attaches a sink.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a Counter may be used standalone or through a
// Registry. All methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus exposition to stay
// well-formed; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically read/written float64 value. The zero value is
// ready to use (reading it yields 0).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d via a compare-and-swap loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: observation v falls
// into the first bucket whose upper bound is >= v, with an implicit
// +Inf overflow bucket at the end. Observe is a linear scan over the
// (short) bound slice plus three atomic writes — no locks, no
// allocation — so parallel k-NN workers can hammer one histogram
// concurrently. Bounds are fixed at construction.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. An empty or nil bounds slice yields a single +Inf bucket.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot copies the histogram state. Taken while writers are active it
// is a per-field-consistent view: each bucket count is an atomic read,
// so totals may lag individual buckets by in-flight observations, but
// no value is ever torn or decreasing.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Counts has
// one entry per bound plus a final overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the
// bucket holding the target rank and interpolating linearly inside it.
// The overflow bucket yields its lower bound (the largest finite bound).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			return lo // overflow bucket: no finite upper bound
		}
		hi := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets is the default latency ladder in seconds: 10 µs to
// 10 s, roughly geometric.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets is the default count ladder (result sizes, k values,
// leaves, evaluations): 1 to 1e6, roughly geometric.
func SizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 1e4, 1e5, 1e6}
}

// RatioBuckets is the default ladder for values in [0, 1] (prune
// ratios, utilizations): steps of 0.1.
func RatioBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Registry names and owns a set of metrics so they can be snapshotted
// and served together. Lookup (Counter, Gauge, Histogram) takes a lock
// and is meant for wiring time — hot paths hold on to the returned
// handles, whose operations are lock-free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls return the existing histogram
// regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every metric's current value. Safe to call while
// writers are active (see Histogram.Snapshot for the consistency
// contract).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Merge folds other's metrics into s. The merge is by name with
// last-wins semantics: a name present in both snapshots — including
// histograms whose bucket bounds differ — is replaced wholesale by
// other's value, never summed or bucket-aligned. Registries served
// together are therefore expected to use disjoint name prefixes.
// Merging into a zero-value Snapshot (nil maps) is valid and allocates
// the maps first.
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64, len(other.Counters))
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64, len(other.Gauges))
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot, len(other.Histograms))
	}
	for name, v := range other.Counters {
		s.Counters[name] = v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] = v
	}
	for name, v := range other.Histograms {
		s.Histograms[name] = v
	}
}
