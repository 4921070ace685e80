package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Window is a rolling windowed histogram: the fixed-bucket value
// histogram of Histogram crossed with a ring of time slots, so
// snapshots reflect only the last `span` of observations instead of
// the process lifetime. It is the substrate for the live per-query
// cost estimators (recent prune ratio, abandonment rate, leaf counts,
// per-shard latency p95) that admission control consumes — a
// cumulative histogram would let yesterday's workload drown out the
// last thirty seconds.
//
// Observe is lock-free and allocation-free: locate the current time
// slot, lazily recycle it when its epoch is stale, then the same
// atomic bucket writes as Histogram. Recycling races are tolerated by
// design — a writer straddling a slot boundary may land an observation
// in a just-reset slot or lose one to the reset — which bounds the
// error to the boundary instants; the estimators feed admission
// pricing, not accounting.
type Window struct {
	bounds   []float64 // ascending upper value bounds
	slotDur  int64     // nanoseconds per time slot
	slots    []windowSlot
	nowNanos func() int64 // injected clock for tests; time.Now based otherwise
}

type windowSlot struct {
	epoch   atomic.Int64 // slot index since the epoch; stale = recyclable
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// windowSlots is the time resolution: the window span is divided into
// this many slots, plus one in-progress slot, so a snapshot covers
// between span and span+span/windowSlots of history.
const windowSlots = 8

// NewWindow builds a rolling histogram over the given ascending value
// bounds covering (approximately) the trailing span. A span below one
// second is raised to one second; nil bounds yield a single +Inf
// bucket.
func NewWindow(bounds []float64, span time.Duration) *Window {
	if span < time.Second {
		span = time.Second
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	w := &Window{
		bounds:   bs,
		slotDur:  span.Nanoseconds() / windowSlots,
		slots:    make([]windowSlot, windowSlots+1),
		nowNanos: func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].counts = make([]atomic.Int64, len(bs)+1)
		w.slots[i].epoch.Store(-1)
	}
	return w
}

// Observe records one value into the current time slot.
func (w *Window) Observe(v float64) {
	s := w.slot(w.nowNanos() / w.slotDur)
	i := 0
	for i < len(w.bounds) && v > w.bounds[i] {
		i++
	}
	s.counts[i].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// slot returns the slot for time epoch e, recycling a stale slot on
// first touch. The CAS winner zeroes the slot; a loser (or a straggler
// from the previous epoch) writes into the fresh slot immediately,
// which at worst misplaces boundary observations by one slot.
func (w *Window) slot(e int64) *windowSlot {
	s := &w.slots[int(e%int64(len(w.slots)))]
	if old := s.epoch.Load(); old != e && s.epoch.CompareAndSwap(old, e) {
		for i := range s.counts {
			s.counts[i].Store(0)
		}
		s.count.Store(0)
		s.sumBits.Store(0)
	}
	return s
}

// Snapshot folds the live (non-expired) time slots into one
// HistogramSnapshot covering the trailing window, reusing the same
// Mean/Quantile estimators as the cumulative histograms.
func (w *Window) Snapshot() HistogramSnapshot {
	nowE := w.nowNanos() / w.slotDur
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), w.bounds...),
		Counts: make([]int64, len(w.bounds)+1),
	}
	minE := nowE - int64(len(w.slots)) + 1
	for i := range w.slots {
		sl := &w.slots[i]
		e := sl.epoch.Load()
		if e < minE || e > nowE {
			continue
		}
		for j := range sl.counts {
			s.Counts[j] += sl.counts[j].Load()
		}
		s.Count += sl.count.Load()
		s.Sum += math.Float64frombits(sl.sumBits.Load())
	}
	return s
}

// Mean returns the windowed mean (0 when the window is empty).
func (w *Window) Mean() float64 { return w.Snapshot().Mean() }

// Quantile estimates the windowed q-quantile (see
// HistogramSnapshot.Quantile).
func (w *Window) Quantile(q float64) float64 { return w.Snapshot().Quantile(q) }
