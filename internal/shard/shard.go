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
// Placement deals runs of index.BlockRows consecutive global ids to the
// shards round-robin, so each shard-local storage block is one global
// block and a shard's sweep skips what one store would. The id map is
// arithmetic: any process that knows N can route an ingest or locate a
// vector. Local ids are monotone in global-id order, which keeps the
// per-shard (Dist, ID) tie-break consistent with the global one.
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
	"repro/internal/index"
	"repro/internal/obs"
)

// stripe is the run of consecutive global ids placed on one shard: one
// storage block.
const stripe = index.BlockRows

// placement maps a global vector id to its shard: stripe s goes to
// shard s mod N.
func placement(g, shards int) int { return g / stripe % shards }

// local maps a global id to its local id on its placement shard.
func local(g, shards int) int { return g/(stripe*shards)*stripe + g%stripe }

// global maps local id l on shard p back to its global id.
func global(p, l, shards int) int { return (l/stripe*shards+p)*stripe + l%stripe }

// Set is a sharded collection: N shard databases and the
// scatter-gather search layer over them. A Set is safe for concurrent
// use; ingest batches are serialized internally (each spans every
// shard) while searches share read access.
type Set struct {
	shards  []*qcluster.Database
	durable []*qcluster.DurableDatabase // nil when memory-only
	met     *setMetrics

	// total counts the global ids assigned. ingestMu serializes whole
	// cross-shard batches (global ids must be assigned in one total
	// order), so a batch is total's only writer.
	total    atomic.Int64
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
// stores), so N shards need at least index.BlockRows·(N−1)+1 vectors.
func New(vectors [][]float64, shards int, opt qcluster.IndexOptions) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	parts, err := partition(vectors, shards)
	if err != nil {
		return nil, err
	}
	s := &Set{shards: make([]*qcluster.Database, shards), met: newSetMetrics()}
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
// Open refuses a root whose layout file records another placement rule
// or N, or that has shard directories and no record (an earlier build
// hashed ids to shards): booting it would map ids to the wrong vectors.
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
	if err := checkLayout(dir, shards); err != nil {
		return nil, err
	}
	s := &Set{shards: make([]*qcluster.Database, shards), met: newSetMetrics()}
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
			eachDurable(s.durable, (*qcluster.DurableDatabase).Close)
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
				eachDurable(s.durable, (*qcluster.DurableDatabase).Close)
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

// layoutFile, at a durable set's root, records the placement rule and
// N the set's shard directories were written under.
const layoutFile = "LAYOUT"

var layoutRule = fmt.Sprintf("stripe/%d", stripe)

// checkLayout holds dir to this build's placement over shards. Before
// the first shard directory exists it (re)writes the record and fsyncs
// it, so a torn record never guards data; after, the record must match.
func checkLayout(dir string, shards int) error {
	path := filepath.Join(dir, layoutFile)
	if _, err := os.Stat(shardDir(dir, 0)); os.IsNotExist(err) {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(f, "placement %s\nshards %d\n", layoutRule, shards)
		if err = errors.Join(err, f.Sync(), f.Close()); err != nil {
			return err
		}
		if f, err = os.Open(dir); err != nil {
			return err
		}
		return errors.Join(f.Sync(), f.Close())
	}
	body, err := os.ReadFile(path)
	var rule string
	var n int
	if err == nil {
		_, err = fmt.Sscanf(string(body), "placement %s\nshards %d\n", &rule, &n)
	}
	switch {
	case os.IsNotExist(err):
		return fmt.Errorf("shard: %s holds shard directories but no %s: an earlier build placed them by hashed id; rebuild the set from its seed",
			dir, layoutFile)
	case err != nil:
		return fmt.Errorf("shard: layout: %w", err)
	case rule != layoutRule:
		return fmt.Errorf("shard: %s: unknown placement rule %q (this build places by %q); rebuild the set from its seed",
			path, rule, layoutRule)
	case n != shards:
		return fmt.Errorf("shard: %s: set was built with %d shards, not %d", path, n, shards)
	}
	return nil
}

// finishInit records the first n global ids and the set-level gauges.
// Called once from New/Open before the Set escapes.
func (s *Set) finishInit(n int) {
	s.total.Store(int64(n))
	s.met.shards.Set(float64(len(s.shards)))
	s.met.items.Set(float64(n))
}

// partition splits vectors by placement of their (sequential) global
// ids, erroring if any shard would start empty.
func partition(vectors [][]float64, shards int) ([][][]float64, error) {
	if need := stripe*(shards-1) + 1; len(vectors) < need {
		return nil, fmt.Errorf("shard: %d vectors leave shard %d of %d empty; %d shards need at least %d vectors",
			len(vectors), shards-1, shards, shards, need)
	}
	parts := make([][][]float64, shards)
	for i, v := range vectors {
		p := placement(i, shards)
		parts[p] = append(parts[p], v)
	}
	return parts, nil
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.shards) }

// Dim returns the feature dimensionality.
func (s *Set) Dim() int { return s.shards[0].Dim() }

// Len returns the number of globally visible vectors.
func (s *Set) Len() int { return int(s.total.Load()) }

// CollectionVersion makes the set a qcluster.SessionSearcher: the sum
// of the shards' own lengths, which is what a search started now sees.
// Len is the wrong reading for this: AddBatchContext assigns a batch's
// global ids before the cross-shard commit, so a page memoized under Len
// could lack a batch that later lands under the same Len.
func (s *Set) CollectionVersion() int {
	n := 0
	for _, db := range s.shards {
		n += db.Len()
	}
	return n
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
	if id < 0 || id >= s.Len() {
		return nil, false
	}
	n := len(s.shards)
	return s.shards[placement(id, n)].VectorOK(local(id, n))
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
	// is the set's; a batch it refuses must not be assigned ids.
	if err := s.shards[0].ValidateBatch(vectors); err != nil {
		return nil, err
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.degraded.Load() {
		return nil, fmt.Errorf("shard: set degraded: %w", errors.Join(qcluster.ErrReadOnly, s.degErr))
	}

	// Assign global ids before committing; each shard's sub-batch must
	// start at the local id its first global id maps to.
	n := len(s.shards)
	ids := make([]int, len(vectors))
	parts := make([][][]float64, n)
	starts := make([]int, n)
	base := s.Len()
	for j, v := range vectors {
		g := base + j
		p := placement(g, n)
		if len(parts[p]) == 0 {
			starts[p] = local(g, n)
		}
		ids[j] = g
		parts[p] = append(parts[p], v)
	}
	s.total.Store(int64(base + len(vectors)))

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
	return eachDurable(s.durable, (*qcluster.DurableDatabase).Checkpoint)
}

// Close closes every durable shard (no-op when memory-only).
func (s *Set) Close() error { return eachDurable(s.durable, (*qcluster.DurableDatabase).Close) }

// eachDurable applies f to every opened shard in dbs and returns the
// first error, naming its shard.
func eachDurable(dbs []*qcluster.DurableDatabase, f func(*qcluster.DurableDatabase) error) error {
	var firstErr error
	for i, db := range dbs {
		if db == nil {
			continue
		}
		if err := f(db); err != nil && firstErr == nil {
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

// Metrics returns the set-level snapshot with every shard's own
// snapshot re-keyed under a "shard<i>." prefix, so per-shard blocks
// never overwrite each other or the set's series.
func (s *Set) Metrics() obs.Snapshot {
	snap := s.met.reg.Snapshot()
	for i, db := range s.shards {
		p, in := fmt.Sprintf("shard%d.", i), db.Metrics()
		for name, v := range in.Counters {
			snap.Counters[p+name] = v
		}
		for name, v := range in.Gauges {
			snap.Gauges[p+name] = v
		}
		for name, v := range in.Histograms {
			snap.Histograms[p+name] = v
		}
	}
	return snap
}
