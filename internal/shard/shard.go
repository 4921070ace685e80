// Package shard partitions a qcluster collection into N independent
// shards — each a complete single-shard stack (contiguous store, hybrid
// tree, batched kernels, optionally its own durable WAL directory) —
// and serves k-NN queries by scatter-gather: every query fans out to
// all shards, the shards share one atomic k-th-best bound (the PR-2
// CAS-min over Float64bits, lifted from intra-search workers to whole
// per-shard searches), and the per-shard top-k sets are merged with the
// deterministic (Dist, ID) order. The merged results are bit-identical
// to the same search over one unsharded database holding the same
// vectors in the same global-id order.
//
// Vector placement is a deterministic hash of the global id
// (splitmix64 mod N), so any process that knows N can route an ingest
// or locate a vector without a directory service. Global ids are
// assigned sequentially; within a shard, local ids are therefore
// monotone in global-id order, which keeps the per-shard (Dist, ID)
// tie-break consistent with the global one.
package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	qcluster "repro"
	"repro/internal/obs"
)

// placement maps a global vector id to its shard with a splitmix64
// finalizer — deterministic across processes, dependency-free, and
// well-mixed even on the sequential id stream.
func placement(id, shards int) int {
	x := uint64(id) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Set is a sharded collection: N shard databases plus the global↔local
// id mapping and the scatter-gather search layer over them. A Set is
// safe for concurrent use; ingest batches are serialized internally
// (each spans every shard) while searches share read access.
type Set struct {
	shards  []*qcluster.Database
	durable []*qcluster.DurableDatabase // nil when memory-only
	dim     int
	met     *setMetrics

	// mu guards the id mapping; ingestMu serializes whole cross-shard
	// batches (global ids must be assigned in one total order).
	mu      sync.RWMutex
	total   int     // global ids assigned
	locals  []int   // global id -> local id within its shard
	globals [][]int // shard -> local id -> global id

	ingestMu sync.Mutex
	degraded atomic.Bool
	degErr   error // first failure that degraded the set; guarded by ingestMu
}

type setMetrics struct {
	reg      *obs.Registry
	searches *obs.Counter
	partials *obs.Counter
	ingested *obs.Counter
	batches  *obs.Counter
	shards   *obs.Gauge
	items    *obs.Gauge
	degraded *obs.Gauge
	searchS  *obs.Histogram
	// badDim carries the database's series name, so a bad example counts
	// alike sharded or not, from a session or a stateless search.
	badDim *obs.Counter
}

func newSetMetrics() *setMetrics {
	reg := obs.NewRegistry()
	return &setMetrics{
		reg:      reg,
		searches: reg.Counter("shard.searches"),
		partials: reg.Counter("shard.partial"),
		ingested: reg.Counter("shard.ingested"),
		batches:  reg.Counter("shard.batches"),
		shards:   reg.Gauge("shard.count"),
		items:    reg.Gauge("shard.items"),
		degraded: reg.Gauge("shard.degraded"),
		searchS:  reg.Histogram("shard.search_seconds", obs.LatencyBuckets()),
		badDim:   reg.Counter("search.dimension_mismatch"),
	}
}

// New builds a memory-only sharded set over the given vectors: vector i
// receives global id i and lands on shard placement(i, shards). Every
// shard must receive at least one vector (the index rejects empty
// stores); with a well-mixed hash this only bites when len(vectors) is
// tiny relative to shards.
func New(vectors [][]float64, shards int, opt qcluster.IndexOptions) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if err := opt.Backend.Validate(); err != nil {
		return nil, err
	}
	parts, err := partition(vectors, shards)
	if err != nil {
		return nil, err
	}
	s := newSet(shards)
	for i, part := range parts {
		db, err := qcluster.NewDatabaseWithOptions(part, opt)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = db
	}
	s.finishInit(len(vectors))
	return s, nil
}

// Open opens (or initializes) a durable sharded set rooted at dir: one
// qcluster durable directory per shard (dir/shard-0000, ...). opt is
// the per-shard durable configuration; opt.Seed is the *global* seed
// collection, partitioned by placement on first boot.
//
// Boot recovery: each shard recovers independently (snapshot + WAL
// replay), then the set computes the longest global-id prefix the
// recovered per-shard counts are consistent with. A crash can tear a
// cross-shard batch — some shards committed their sub-batch, others
// did not — in which case the over-committed shards are rolled back to
// the consistent prefix (DurableOptions.TrimToItems). The trimmed
// suffix is necessarily unacknowledged: a batch is only acknowledged
// after every shard committed, so anything past the shortest shard's
// coverage was never acked.
func Open(dir string, shards int, opt qcluster.DurableOptions) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	if err := opt.Index.Backend.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create data dir: %w", err)
	}
	var parts [][][]float64
	if len(opt.Seed) > 0 {
		var err error
		if parts, err = partition(opt.Seed, shards); err != nil {
			return nil, err
		}
	}
	s := newSet(shards)
	s.durable = make([]*qcluster.DurableDatabase, shards)
	counts := make([]int, shards)
	for i := range s.shards {
		per := opt
		per.TrimToItems = 0
		if parts != nil {
			per.Seed = parts[i]
		}
		db, err := qcluster.OpenDatabase(shardDir(dir, i), per)
		if err != nil {
			closeShards(s.durable[:i])
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.durable[i], s.shards[i] = db, db.Database
		counts[i] = db.Len()
	}
	// Longest global prefix consistent with the recovered counts: walk
	// the deterministic id stream until some shard runs out of vectors.
	quota := make([]int, shards)
	n := 0
	for {
		p := placement(n, shards)
		if quota[p] == counts[p] {
			break
		}
		quota[p]++
		n++
	}
	for i, c := range counts {
		if c > quota[i] {
			// Over-committed suffix from a torn cross-shard batch: roll
			// this shard back to the consistent prefix and re-boot it.
			s.durable[i].Close()
			per := opt
			per.Seed = nil
			per.TrimToItems = quota[i]
			db, err := qcluster.OpenDatabase(shardDir(dir, i), per)
			if err != nil {
				closeShards(s.durable)
				return nil, fmt.Errorf("shard %d (trim to %d): %w", i, quota[i], err)
			}
			s.durable[i], s.shards[i] = db, db.Database
		}
	}
	s.finishInit(n)
	return s, nil
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

func closeShards(dbs []*qcluster.DurableDatabase) {
	for _, db := range dbs {
		if db != nil {
			db.Close()
		}
	}
}

func newSet(shards int) *Set {
	return &Set{
		shards:  make([]*qcluster.Database, shards),
		globals: make([][]int, shards),
		met:     newSetMetrics(),
	}
}

// finishInit builds the id mapping for the first n global ids and the
// set-level gauges. Called once from New/Open before the Set escapes.
func (s *Set) finishInit(n int) {
	s.dim = s.shards[0].Dim()
	s.locals = make([]int, n)
	for g := 0; g < n; g++ {
		p := placement(g, len(s.shards))
		s.locals[g] = len(s.globals[p])
		s.globals[p] = append(s.globals[p], g)
	}
	s.total = n
	s.met.shards.Set(float64(len(s.shards)))
	s.met.items.Set(float64(n))
}

// partition splits vectors by placement of their (sequential) global
// ids, erroring if any shard would start empty.
func partition(vectors [][]float64, shards int) ([][][]float64, error) {
	parts := make([][][]float64, shards)
	for i, v := range vectors {
		p := placement(i, shards)
		parts[p] = append(parts[p], v)
	}
	for i, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("shard: %d vectors leave shard %d of %d empty; use fewer shards or more vectors",
				len(vectors), i, shards)
		}
	}
	return parts, nil
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Dim returns the feature dimensionality.
func (s *Set) Dim() int { return s.dim }

// IndexInfo reports the active search backend and its parameters. All
// shards are built from the same IndexOptions, so shard 0 speaks for
// the set.
func (s *Set) IndexInfo() qcluster.IndexInfo { return s.shards[0].IndexInfo() }

// Len returns the number of globally visible vectors.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// NewSession starts a feedback session over the whole set:
// qcluster.Session — the one implementation of retrieve, mark, refine —
// searching through the set's scatter-gather.
func (s *Set) NewSession(example []float64, opt qcluster.Options) *qcluster.Session {
	return qcluster.NewSessionOver(s, example, opt)
}

// Vector returns global id's feature vector (read-only), or nil when
// the id is out of range.
func (s *Set) Vector(id int) []float64 {
	v, _ := s.VectorOK(id)
	return v
}

// VectorOK returns global id's feature vector and whether it is live.
func (s *Set) VectorOK(id int) ([]float64, bool) {
	s.mu.RLock()
	if id < 0 || id >= s.total {
		s.mu.RUnlock()
		return nil, false
	}
	local := s.locals[id]
	s.mu.RUnlock()
	return s.shards[placement(id, len(s.shards))].VectorOK(local)
}

// Durable reports whether the set persists ingest (built by Open).
func (s *Set) Durable() bool { return s.durable != nil }

// AddBatchContext appends a batch across the set under one global id
// assignment: vector j of the batch receives global id base+j and is
// routed to its placement shard; the per-shard sub-batches commit in
// parallel (each behind its own shard's group-commit fsync when
// durable) and the call acknowledges only after every shard committed.
// The context gates starting the batch; once the cross-shard commit is
// in flight it runs to completion — cancellable per-shard acks would
// let one global batch land on a subset of shards, which is exactly
// the inconsistency the set exists to prevent. Any shard failure flips
// the whole set into sticky read-only degraded mode (ErrReadOnly).
func (s *Set) AddBatchContext(ctx context.Context, vectors [][]float64) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shard: add not started: %w", err)
	}
	if len(vectors) == 0 {
		return nil, nil
	}
	// Every shard is built from the same IndexOptions, so shard 0's rule
	// is the set's; a batch it refuses must not move the id map.
	if err := s.shards[0].ValidateBatch(vectors); err != nil {
		return nil, err
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.degraded.Load() {
		return nil, fmt.Errorf("shard: set degraded: %w", errors.Join(qcluster.ErrReadOnly, s.degErr))
	}

	// Assign global ids and extend the mapping before committing: the
	// mapping must cover a vector by the time it becomes visible in any
	// shard's tree, and commit order per shard follows enqueue order.
	n := len(s.shards)
	ids := make([]int, len(vectors))
	parts := make([][][]float64, n)
	starts := make([]int, n)
	s.mu.Lock()
	base := s.total
	for i := range s.shards {
		starts[i] = len(s.globals[i])
	}
	for j, v := range vectors {
		g := base + j
		p := placement(g, n)
		ids[j] = g
		s.locals = append(s.locals, len(s.globals[p]))
		s.globals[p] = append(s.globals[p], g)
		parts[p] = append(parts[p], v)
	}
	s.total = base + len(vectors)
	s.mu.Unlock()

	// Parallel cross-shard commit. Deliberately context-free: see the
	// method comment.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range s.shards {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := s.shardIngestor(i).AddBatchContext(context.Background(), parts[i])
			if err == nil && (len(got) == 0 || got[0] != starts[i]) {
				err = fmt.Errorf("shard %d: local id drift: batch started at %d, expected %d",
					i, first(got), starts[i])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.degrade(fmt.Errorf("shard %d: %w", i, err))
			return nil, fmt.Errorf("shard: cross-shard batch failed, set now read-only: %w", err)
		}
	}
	s.met.batches.Inc()
	s.met.ingested.Add(int64(len(vectors)))
	s.met.items.Set(float64(base + len(vectors)))
	return ids, nil
}

func first(ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	return ids[0]
}

// shardIngestor picks the durable write path when one exists (writing
// through the embedded Database would bypass the WAL).
func (s *Set) shardIngestor(i int) interface {
	AddBatchContext(context.Context, [][]float64) ([]int, error)
} {
	if s.durable != nil {
		return s.durable[i]
	}
	return s.shards[i]
}

// degrade flips the set into sticky read-only mode. Callers hold
// ingestMu.
func (s *Set) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degErr = err
		s.met.degraded.Set(1)
	}
}

// Checkpoint snapshots every durable shard (no-op when memory-only).
func (s *Set) Checkpoint() error {
	if s.durable == nil {
		return nil
	}
	var firstErr error
	for i, db := range s.durable {
		if err := db.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// Close closes every durable shard (no-op when memory-only).
func (s *Set) Close() error {
	if s.durable == nil {
		return nil
	}
	var firstErr error
	for i, db := range s.durable {
		if err := db.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// ShardHealth is one shard's block in the set's health report.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Items is the shard's local vector count.
	Items int `json:"items"`
	// Durability is the shard's durable status (nil when memory-only).
	Durability *qcluster.DurabilityHealth `json:"durability,omitempty"`
}

// Health reports per-shard status blocks for /healthz.
func (s *Set) Health() []ShardHealth {
	out := make([]ShardHealth, len(s.shards))
	for i, db := range s.shards {
		out[i] = ShardHealth{Shard: i, Items: db.Len()}
		if s.durable != nil {
			h := s.durable[i].Health()
			out[i].Durability = &h
		}
	}
	return out
}

// ReadOnly reports whether the set is in sticky degraded mode (a
// cross-shard batch failure) or any durable shard degraded itself.
func (s *Set) ReadOnly() bool {
	if s.degraded.Load() {
		return true
	}
	if s.durable != nil {
		for _, db := range s.durable {
			if db.Health().ReadOnly {
				return true
			}
		}
	}
	return false
}

// Registry exposes the set-level metrics registry (for ServeDebug).
func (s *Set) Registry() *obs.Registry { return s.met.reg }

// Metrics returns the set-level snapshot merged with every shard's own
// snapshot re-keyed under a "shard<i>." prefix (the obs merge
// overwrites name collisions, so per-shard blocks must be disjoint).
func (s *Set) Metrics() obs.Snapshot {
	snap := s.met.reg.Snapshot()
	for i, db := range s.shards {
		snap.Merge(prefixSnapshot(fmt.Sprintf("shard%d.", i), db.Metrics()))
	}
	return snap
}

func prefixSnapshot(p string, in obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		Counters:   make(map[string]int64, len(in.Counters)),
		Gauges:     make(map[string]float64, len(in.Gauges)),
		Histograms: make(map[string]obs.HistogramSnapshot, len(in.Histograms)),
	}
	for name, v := range in.Counters {
		out.Counters[p+name] = v
	}
	for name, v := range in.Gauges {
		out.Gauges[p+name] = v
	}
	for name, v := range in.Histograms {
		out.Histograms[p+name] = v
	}
	return out
}
