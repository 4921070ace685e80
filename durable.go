package qcluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// DurableOptions tunes OpenDatabase. The zero value (plus a Seed for
// the first boot) is a sane default.
type DurableOptions struct {
	// Index tunes the in-memory search index.
	Index IndexOptions
	// Seed provides the initial collection for a directory that holds no
	// snapshot yet (first boot). Ignored once a snapshot exists.
	Seed [][]float64
	// TrimToItems, when positive, drops every recovered vector beyond the
	// first TrimToItems at boot, before the boot checkpoint. The sharded
	// set uses it to roll a shard back to the longest globally consistent
	// prefix when a crash tore a cross-shard batch: the trimmed suffix is
	// by construction unacknowledged (an acknowledged global batch is
	// durable on every shard), so durability semantics are unchanged.
	// 0 (the default) keeps everything.
	TrimToItems int
}

// The write-ahead log's group commit and rotation, fixed because no
// deployment or workload has set another value.
const (
	walBatch       = 256      // vectors coalesced into one WAL record + fsync
	walRotateBytes = 64 << 20 // active-log size that triggers a background snapshot
)

// walTuning carries those constants: OpenDatabase serves fixedWAL, and
// only this package's tests call openDatabase with others.
type walTuning struct {
	batch       int
	rotateBytes int64
}

var fixedWAL = walTuning{batch: walBatch, rotateBytes: walRotateBytes}

// DurabilityHealth is a DurableDatabase's durability status: whether a
// disk failure degraded it to read-only, what boot recovery did, and
// the live write-ahead-log footprint.
type DurabilityHealth struct {
	// ReadOnly reports degraded mode: a persistent disk error stopped
	// the ingest path; searches and sessions keep working.
	ReadOnly bool `json:"read_only"`
	// Err is the disk failure that degraded the database ("" when
	// healthy).
	Err string `json:"err,omitempty"`
	// Items is the live collection size.
	Items int `json:"items"`
	// WALBytes is the active log's size since the last rotation.
	WALBytes int64 `json:"wal_bytes"`
	// ReplayedRecords and ReplayedVectors describe boot recovery: WAL
	// records applied on top of the snapshot and the vectors they held.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedVectors int `json:"replayed_vectors"`
	// TruncatedBytes is the torn tail dropped from the log at boot
	// (non-zero exactly when the previous process died mid-append).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// TrimmedVectors counts recovered vectors dropped at boot by
	// DurableOptions.TrimToItems (cross-shard consistency rollback).
	TrimmedVectors int `json:"trimmed_vectors,omitempty"`
	// Snapshots counts snapshot rotations this process completed
	// (including the boot checkpoint).
	Snapshots int64 `json:"snapshots"`
	// LastSnapshot is the completion time of the most recent rotation
	// (zero if none this process).
	LastSnapshot time.Time `json:"last_snapshot,omitempty"`
}

// DurableDatabase is a Database whose ingest path survives crashes: an
// Add or AddBatch is acknowledged only after its vectors are fsynced
// into a write-ahead log, and OpenDatabase boots warm from the last
// snapshot plus a WAL replay — every acknowledged write is recovered,
// no unacknowledged write is half-applied.
//
// Writes MUST go through the DurableDatabase methods (Add, AddBatch,
// AddBatchContext); calling the embedded Database's Add directly would
// bypass the log and the write would not survive a crash. Concurrent
// Adds are coalesced by an internal batcher into single-lock AddBatch
// applications behind one WAL record and one fsync: the write path's
// only group commit.
//
// A persistent disk error flips the database into read-only degraded
// mode: ingest calls fail fast with ErrReadOnly while searches and
// feedback sessions keep working; Health surfaces the state.
type DurableDatabase struct {
	*Database
	dir string
	tun walTuning

	reqs    chan *addReq
	stop    chan struct{}
	done    chan struct{}
	closeMu sync.RWMutex // excludes enqueue against Close
	closed  bool         // guarded by closeMu

	// flushMu serializes WAL commit + store apply against rotation's
	// segment swap, so a snapshot captured under it covers every record
	// of the retired segment.
	flushMu sync.Mutex
	w       *wal.Writer // guarded by flushMu
	walB    atomic.Int64

	rotating atomic.Bool
	bg       sync.WaitGroup

	readOnly atomic.Bool
	healthMu sync.Mutex
	health   DurabilityHealth

	met durableMetrics
}

type addReq struct {
	vecs [][]float64
	ids  []int
	err  error
	done chan struct{}
}

// durableMetrics are the durability handles, registered in the embedded
// database's registry so Metrics()/ServeDebug expose one merged view.
type durableMetrics struct {
	walMet     wal.Metrics
	replayRecs *obs.Counter
	replayVecs *obs.Counter
	truncBytes *obs.Counter
	rotations  *obs.Counter
	readOnly   *obs.Gauge
	batches    *obs.Counter
	batchSize  *obs.Histogram
	acked      *obs.Counter
	rejected   *obs.Counter
	ackSec     *obs.Histogram
}

func newDurableMetrics(reg *obs.Registry) durableMetrics {
	return durableMetrics{
		walMet: wal.Metrics{
			AppendSeconds: reg.Histogram("wal.append_seconds", obs.LatencyBuckets()),
			FsyncSeconds:  reg.Histogram("wal.fsync_seconds", obs.LatencyBuckets()),
			Fsyncs:        reg.Counter("wal.fsyncs"),
			Records:       reg.Counter("wal.records"),
			Bytes:         reg.Counter("wal.bytes"),
		},
		replayRecs: reg.Counter("wal.replay_records"),
		replayVecs: reg.Counter("wal.replay_vectors"),
		truncBytes: reg.Counter("wal.replay_truncated_bytes"),
		rotations:  reg.Counter("wal.rotations"),
		readOnly:   reg.Gauge("wal.read_only"),
		batches:    reg.Counter("ingest.batches"),
		batchSize:  reg.Histogram("ingest.batch_size", obs.SizeBuckets()),
		acked:      reg.Counter("ingest.acked"),
		rejected:   reg.Counter("ingest.rejected"),
		ackSec:     reg.Histogram("ingest.ack_seconds", obs.LatencyBuckets()),
	}
}

// File names inside the durable directory.
const (
	snapshotFile = "snapshot"
	walFile      = "wal.log"
	walOldFile   = "wal.old"
)

// OpenDatabase opens (or initializes) the durable database rooted at
// dir: boot loads the snapshot, replays the write-ahead log on top
// (repairing a torn tail), checkpoints the recovered state, and starts
// the ingest batcher. A directory with no snapshot is seeded from
// opt.Seed. The caller must Close the returned database.
func OpenDatabase(dir string, opt DurableOptions) (*DurableDatabase, error) {
	return openDatabase(dir, opt, fixedWAL)
}

func openDatabase(dir string, opt DurableOptions, tun walTuning) (_ *DurableDatabase, err error) {
	defer barrier("OpenDatabase", &err)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qcluster: create data dir: %w", err)
	}
	// A crash can leave a half-written snapshot temp; it was never
	// renamed into place, so it is garbage.
	os.Remove(filepath.Join(dir, snapshotFile+".tmp"))

	dim, flat, err := loadSnapshotFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	firstBoot := flat == nil
	if firstBoot && len(opt.Seed) > 0 {
		dim = len(opt.Seed[0])
		flat = make([]float64, 0, len(opt.Seed)*dim)
		for i, v := range opt.Seed {
			if len(v) != dim {
				return nil, fmt.Errorf("qcluster: seed vector %d has dimension %d, want %d: %w",
					i, len(v), dim, ErrDimensionMismatch)
			}
			for d, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("qcluster: seed vector %d component %d is not finite", i, d)
				}
			}
			flat = append(flat, v...)
		}
	}

	// Replay the retired segment (present only if a crash interrupted a
	// rotation) and then the active log. Records carry their starting
	// id, so records already covered by the snapshot skip idempotently.
	var health DurabilityHealth
	for _, name := range []string{walOldFile, walFile} {
		stats, rerr := wal.Replay(filepath.Join(dir, name), func(payload []byte) error {
			applied, aerr := applyWALRecord(payload, &dim, &flat)
			health.ReplayedVectors += applied
			return aerr
		})
		if rerr != nil {
			return nil, fmt.Errorf("qcluster: replaying %s: %w", name, rerr)
		}
		health.ReplayedRecords += stats.Records
		health.TruncatedBytes += stats.TruncatedBytes
	}

	// Cross-shard consistency rollback: drop the unacknowledged suffix a
	// torn multi-shard batch left behind (see DurableOptions.TrimToItems).
	if opt.TrimToItems > 0 && dim > 0 && len(flat) > opt.TrimToItems*dim {
		health.TrimmedVectors = len(flat)/dim - opt.TrimToItems
		flat = flat[:opt.TrimToItems*dim]
	}

	if len(flat) == 0 {
		return nil, fmt.Errorf("qcluster: %s holds no snapshot and no seed was provided", dir)
	}
	db, err := newDatabaseFlat(flat, dim, opt.Index)
	if err != nil {
		return nil, err
	}

	d := &DurableDatabase{
		Database: db,
		dir:      dir,
		tun:      tun,
		reqs:     make(chan *addReq, 4*tun.batch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		met:      newDurableMetrics(db.met.reg),
		health:   health,
	}
	d.met.replayRecs.Add(int64(health.ReplayedRecords))
	d.met.replayVecs.Add(int64(health.ReplayedVectors))
	d.met.truncBytes.Add(health.TruncatedBytes)

	// Checkpoint the recovered state so the boot invariant — snapshot
	// covers everything, logs empty — holds before the first write.
	if err := writeSnapshotFile(filepath.Join(dir, snapshotFile), dim, flat); err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(dir, walOldFile))
	os.Remove(filepath.Join(dir, walFile))
	w, err := wal.Open(filepath.Join(dir, walFile), d.met.walMet)
	if err != nil {
		return nil, err
	}
	d.w = w
	d.healthMu.Lock()
	d.health.Snapshots++
	d.health.LastSnapshot = time.Now()
	d.healthMu.Unlock()
	d.met.rotations.Inc()

	go d.run()
	return d, nil
}

// Dir returns the durable directory.
func (d *DurableDatabase) Dir() string { return d.dir }

// Health returns the durability status. Safe to call at any time.
func (d *DurableDatabase) Health() DurabilityHealth {
	d.healthMu.Lock()
	h := d.health
	d.healthMu.Unlock()
	h.ReadOnly = d.readOnly.Load()
	h.Items = d.Len()
	h.WALBytes = d.walB.Load()
	return h
}

// Add durably appends one vector: it returns the new id only after the
// vector is fsynced into the write-ahead log and applied to the index.
// Concurrent Adds share fsyncs through the batcher.
func (d *DurableDatabase) Add(vector []float64) (int, error) {
	ids, err := d.AddBatch([][]float64{vector})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatch durably appends a batch, acknowledging (with the assigned
// ids, in input order) only after one fsync covers the whole batch.
func (d *DurableDatabase) AddBatch(vectors [][]float64) ([]int, error) {
	return d.AddBatchContext(context.Background(), vectors)
}

// AddBatchContext is AddBatch with a bounded wait: if ctx expires
// before the group commit completes, the call returns the context error
// — the write may still become durable (it is already queued), exactly
// like a positive ack lost on a network. It never reports success for
// a write that is not durable.
func (d *DurableDatabase) AddBatchContext(ctx context.Context, vectors [][]float64) (_ []int, err error) {
	defer barrier("AddBatchContext", &err)
	start := time.Now()
	if len(vectors) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qcluster: add not started: %w", err)
	}
	if d.readOnly.Load() {
		d.met.rejected.Add(int64(len(vectors)))
		return nil, d.readOnlyErr()
	}
	// Validate before anything reaches the log: a record that replays
	// must be applicable.
	if err := d.ValidateBatch(vectors); err != nil {
		return nil, err
	}
	req := &addReq{vecs: vectors, done: make(chan struct{})}
	// Enqueue under the close lock, so Close's drain sees every queued
	// request. A full queue only delays Close: the batcher keeps
	// consuming until Close owns the lock.
	d.closeMu.RLock()
	if d.closed {
		d.closeMu.RUnlock()
		return nil, fmt.Errorf("qcluster: add on closed database: %w", ErrReadOnly)
	}
	select {
	case d.reqs <- req:
		d.closeMu.RUnlock()
	case <-ctx.Done():
		d.closeMu.RUnlock()
		return nil, fmt.Errorf("qcluster: add queue wait: %w", ctx.Err())
	}
	select {
	case <-req.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("qcluster: add ack wait: %w", ctx.Err())
	}
	if req.err != nil {
		return nil, req.err
	}
	d.met.ackSec.Observe(time.Since(start).Seconds())
	return req.ids, nil
}

// run is the ingest batcher, the write path's one group commit. It
// blocks for the first queued add, absorbs everything else already
// queued (up to walBatch vectors), and flushes the moment the queue
// runs empty — with closed-loop producers, everyone who could join the
// batch is already in it, so waiting longer would add latency without
// adding batching. Batches still form naturally: while one flush's
// fsync is in flight, new adds pile up in the queue and ride the next
// flush together. run is the queue's only receiver, so a non-empty
// queue cannot block its receives.
//
// Once Close closes stop, run drains the queue in the same batches and
// returns. Close holds the write side of closeMu before closing stop,
// so no request can be queued after that.
func (d *DurableDatabase) run() {
	defer close(d.done)
	for {
		var r *addReq
		select {
		case r = <-d.reqs:
		case <-d.stop:
			if len(d.reqs) == 0 {
				return
			}
			r = <-d.reqs
		}
		batch, vecs := []*addReq{r}, len(r.vecs)
		for vecs < d.tun.batch && len(d.reqs) > 0 {
			r := <-d.reqs
			batch = append(batch, r)
			vecs += len(r.vecs)
		}
		d.flush(batch, vecs)
	}
}

// flush is one durable group commit: frame the batch as a single WAL
// record, fsync it, apply it to the store and index under one write
// lock, then acknowledge every waiter. Ordering is the whole point —
// log before apply, apply before ack — so a crash at any instant leaves
// either a replayable record or nothing, and never an acknowledged
// write that replay cannot reproduce.
func (d *DurableDatabase) flush(batch []*addReq, vecs int) {
	if d.readOnly.Load() {
		d.nack(batch, d.readOnlyErr())
		return
	}
	d.flushMu.Lock()
	startID := d.Len()
	all := make([][]float64, 0, vecs)
	for _, r := range batch {
		all = append(all, r.vecs...)
	}
	payload := encodeWALRecord(startID, d.Dim(), all)
	if err := d.w.Commit(payload); err != nil {
		d.flushMu.Unlock()
		d.degrade(err)
		d.nack(batch, d.readOnlyErr())
		return
	}
	d.walB.Store(d.w.AppendedBytes())
	ids, err := d.Database.AddBatch(all)
	d.flushMu.Unlock()
	if err != nil {
		// The record is durable but unappliable — an invariant break,
		// since the batch was validated before queueing.
		d.degrade(fmt.Errorf("qcluster: applying committed batch: %w", err))
		d.nack(batch, d.readOnlyErr())
		return
	}
	d.met.batches.Inc()
	d.met.batchSize.Observe(float64(vecs))
	d.met.acked.Add(int64(vecs))
	off := 0
	for _, r := range batch {
		r.ids = ids[off : off+len(r.vecs)]
		off += len(r.vecs)
		close(r.done)
	}
	d.maybeRotate()
}

func (d *DurableDatabase) nack(batch []*addReq, err error) {
	for _, r := range batch {
		r.err = err
		close(r.done)
	}
	n := 0
	for _, r := range batch {
		n += len(r.vecs)
	}
	d.met.rejected.Add(int64(n))
}

// degrade flips the database into read-only mode, recording the disk
// failure that caused it.
func (d *DurableDatabase) degrade(err error) {
	if d.readOnly.CompareAndSwap(false, true) {
		d.met.readOnly.Set(1)
		d.healthMu.Lock()
		d.health.Err = err.Error()
		d.healthMu.Unlock()
	}
}

func (d *DurableDatabase) readOnlyErr() error {
	d.healthMu.Lock()
	msg := d.health.Err
	d.healthMu.Unlock()
	if msg == "" {
		return fmt.Errorf("qcluster: %w", ErrReadOnly)
	}
	return fmt.Errorf("qcluster: %w: %s", ErrReadOnly, msg)
}

// maybeRotate starts a background snapshot rotation when the active log
// outgrew walRotateBytes. At most one rotation runs at a time; ingest
// continues against the fresh log while the snapshot writes in the
// background.
func (d *DurableDatabase) maybeRotate() {
	if d.walB.Load() < d.tun.rotateBytes {
		return
	}
	if !d.rotating.CompareAndSwap(false, true) {
		return
	}
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		defer d.rotating.Store(false)
		if err := d.rotate(); err != nil {
			d.degrade(err)
		}
	}()
}

// Checkpoint synchronously rotates: snapshot the current store, swap in
// a fresh write-ahead log, and delete the retired one. After it returns
// the directory boots without any replay. Safe to call concurrently
// with ingest; concurrent with an automatic rotation it waits its turn.
func (d *DurableDatabase) Checkpoint() (err error) {
	defer barrier("Checkpoint", &err)
	for !d.rotating.CompareAndSwap(false, true) {
		d.bg.Wait() // an automatic rotation is in flight; let it finish
	}
	defer d.rotating.Store(false)
	if err := d.rotate(); err != nil {
		d.degrade(err)
		return err
	}
	return nil
}

// rotate is the rotation body (caller owns the `rotating` flag):
//
//  1. Under flushMu — so no batch is between its WAL commit and its
//     store apply — retire the active log (rename to wal.old), open a
//     fresh one, and copy the store image. The image covers every
//     record in the retired log.
//  2. Outside the lock, write the snapshot atomically.
//  3. Delete the retired log: its records are all inside the snapshot.
//
// A crash before step 2's rename boots from the old snapshot + wal.old
// + the new wal.log; after it, the new snapshot makes wal.old records
// no-ops (their start ids are already covered). Both paths recover
// exactly the acknowledged writes.
func (d *DurableDatabase) rotate() error {
	if d.readOnly.Load() {
		return d.readOnlyErr()
	}
	walPath := filepath.Join(d.dir, walFile)
	oldPath := filepath.Join(d.dir, walOldFile)
	d.flushMu.Lock()
	if err := d.w.Close(); err != nil {
		d.flushMu.Unlock()
		return fmt.Errorf("qcluster: rotate: closing wal: %w", err)
	}
	if err := os.Rename(walPath, oldPath); err != nil {
		d.flushMu.Unlock()
		return fmt.Errorf("qcluster: rotate: retiring wal: %w", err)
	}
	w, err := wal.Open(walPath, d.met.walMet)
	if err != nil {
		d.flushMu.Unlock()
		return fmt.Errorf("qcluster: rotate: fresh wal: %w", err)
	}
	d.w = w
	d.walB.Store(0)
	dim, flat := d.flatCopy()
	d.flushMu.Unlock()

	if err := writeSnapshotFile(filepath.Join(d.dir, snapshotFile), dim, flat); err != nil {
		return err
	}
	os.Remove(oldPath)
	d.met.rotations.Inc()
	d.healthMu.Lock()
	d.health.Snapshots++
	d.health.LastSnapshot = time.Now()
	d.healthMu.Unlock()
	return nil
}

// Close drains the ingest queue (pending adds are flushed durably, so
// no caller that could still be waiting is dropped), waits for any
// background rotation, and closes the log. It does not checkpoint —
// the next OpenDatabase replays the log warm; call Checkpoint first
// for a replay-free boot.
func (d *DurableDatabase) Close() error {
	d.closeMu.Lock()
	if d.closed {
		d.closeMu.Unlock()
		<-d.done
		return nil
	}
	d.closed = true
	close(d.stop)
	d.closeMu.Unlock()
	<-d.done
	d.bg.Wait()
	d.flushMu.Lock()
	err := d.w.Close()
	d.flushMu.Unlock()
	return err
}

// ---- WAL record codec ----

// A WAL record frames one applied batch (little-endian):
//
//	[8] u64 start id — the store length when the batch was applied
//	[4] u32 dim
//	[4] u32 vector count
//	[..] count×dim float64 components, row-major
//
// The start id makes replay idempotent: records fully covered by the
// booted snapshot skip, a record straddling the snapshot boundary
// applies only its uncovered suffix, and a record starting beyond the
// store length reveals a gap (lost acknowledged writes) that aborts the
// boot instead of building a silently wrong database.
func encodeWALRecord(startID, dim int, vecs [][]float64) []byte {
	buf := make([]byte, 16+8*dim*len(vecs))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(startID))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(dim))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(vecs)))
	off := 16
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(x))
			off += 8
		}
	}
	return buf
}

// applyWALRecord decodes one record onto the boot image, returning the
// number of vectors actually appended. *dimp is set from the first
// record when the image is empty.
func applyWALRecord(payload []byte, dimp *int, flat *[]float64) (int, error) {
	if len(payload) < 16 {
		return 0, fmt.Errorf("qcluster: wal record of %d bytes: %w", len(payload), ErrCorruptLog)
	}
	startID := int(binary.LittleEndian.Uint64(payload[0:8]))
	dim := int(binary.LittleEndian.Uint32(payload[8:12]))
	count := int(binary.LittleEndian.Uint32(payload[12:16]))
	if dim <= 0 || count < 0 || len(payload) != 16+8*dim*count {
		return 0, fmt.Errorf("qcluster: wal record shape %d×%d in %d bytes: %w",
			count, dim, len(payload), ErrCorruptLog)
	}
	if *dimp == 0 && len(*flat) == 0 {
		*dimp = dim
	}
	if dim != *dimp {
		return 0, fmt.Errorf("qcluster: wal record dim %d, database has %d: %w", dim, *dimp, ErrCorruptLog)
	}
	have := len(*flat) / dim
	if startID > have {
		return 0, fmt.Errorf("qcluster: wal record starts at id %d but only %d vectors exist (lost writes): %w",
			startID, have, ErrCorruptLog)
	}
	if startID+count <= have {
		return 0, nil // fully covered by the snapshot
	}
	skip := have - startID // vectors of this record already covered
	off := 16 + 8*dim*skip
	appended := 0
	for i := skip; i < count; i++ {
		for dcomp := 0; dcomp < dim; dcomp++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(payload[off : off+8]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return appended, fmt.Errorf("qcluster: wal record vector %d component %d is not finite: %w",
					startID+i, dcomp, ErrCorruptLog)
			}
			*flat = append(*flat, x)
			off += 8
		}
		appended++
	}
	return appended, nil
}
