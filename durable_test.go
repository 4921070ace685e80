package qcluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/synth"
	"repro/internal/wal"
)

// openTestDB opens dir (seeded with 32 4-d Gaussian vectors from seed 1 on first boot)
// under the given group-commit and rotation tuning.
func openTestDB(t *testing.T, dir string, tun walTuning) *DurableDatabase {
	t.Helper()
	d, err := openDatabase(dir, DurableOptions{Seed: synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), 32, 4, 1)}, tun)
	if err != nil {
		t.Fatalf("OpenDatabase: %v", err)
	}
	return d
}

// requireSameSearch asserts two databases return bit-identical k-NN
// panels for a set of probe queries.
func requireSameSearch(t *testing.T, want, got *Database) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len: want %d, got %d", want.Len(), got.Len())
	}
	probes := synth.Gaussian[[]float64](rand.New(rand.NewSource(99)), 8, want.Dim(), 1)
	for qi, p := range probes {
		a := want.SearchByExample(p, 10)
		b := got.SearchByExample(p, 10)
		if len(a) != len(b) {
			t.Fatalf("probe %d: result count %d vs %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
				t.Fatalf("probe %d rank %d: (%d, %x) vs (%d, %x)",
					qi, i, a[i].ID, math.Float64bits(a[i].Dist), b[i].ID, math.Float64bits(b[i].Dist))
			}
		}
	}
}

func TestDurableWarmRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	added := synth.Gaussian[[]float64](rand.New(rand.NewSource(2)), 100, 4, 1)
	var ids []int
	for i := 0; i < len(added); i += 10 {
		got, err := d.AddBatch(added[i : i+10])
		if err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
		ids = append(ids, got...)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("non-contiguous ids: %v", ids)
		}
	}
	h := d.Health()
	if h.Items != 132 || h.ReadOnly || h.WALBytes == 0 {
		t.Fatalf("health before close: %+v", h)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen without a checkpoint: everything must come back via WAL
	// replay, and searches must be bit-identical to a fresh in-memory
	// database over the same vectors.
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	h2 := d2.Health()
	if h2.Items != 132 {
		t.Fatalf("restart lost vectors: %+v", h2)
	}
	if h2.ReplayedVectors != 100 {
		t.Fatalf("expected 100 replayed vectors, got %+v", h2)
	}
	all := append(append([][]float64(nil), synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), 32, 4, 1)...), added...)
	ref, err := NewDatabase(all)
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	requireSameSearch(t, ref, d2.Database)
}

func TestDurableCheckpointSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(3)), 20, 4, 1)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := d.Health().WALBytes; got != 0 {
		t.Fatalf("wal not truncated by checkpoint: %d bytes", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	h := d2.Health()
	if h.ReplayedRecords != 0 || h.ReplayedVectors != 0 {
		t.Fatalf("checkpointed boot still replayed: %+v", h)
	}
	if h.Items != 52 {
		t.Fatalf("items after checkpointed boot: %+v", h)
	}
}

func TestDurableAutomaticRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every flush overflows it, so rotation exercises
	// concurrently with ingest.
	d := openTestDB(t, dir, walTuning{batch: 4, rotateBytes: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vecs := synth.Gaussian[[]float64](rand.New(rand.NewSource(int64(10+w))), 40, 4, 1)
			for _, v := range vecs {
				if _, err := d.Add(v); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if h := d.Health(); h.Snapshots < 2 {
		t.Fatalf("expected automatic rotations, health %+v", h)
	}
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	if got := d2.Len(); got != 32+4*40 {
		t.Fatalf("after rotation+restart Len = %d, want %d", got, 32+4*40)
	}
}

// TestDurableGroupCommitCoalesces holds the first flush inside its fsync
// until K more adders are queued, then checks that the batcher commits
// all K as one WAL record behind one fsync — also when Close begins
// while they are queued, so its drain batches them the same way.
func TestDurableGroupCommitCoalesces(t *testing.T) {
	for _, closing := range []bool{false, true} {
		t.Run(map[bool]string{false: "open", true: "closing"}[closing], func(t *testing.T) {
			testGroupCommitCoalesces(t, closing)
		})
	}
}

func testGroupCommitCoalesces(t *testing.T, closing bool) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	const k, per = 8, 3
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.Set(faultinject.WALPreFsync, func() {
		once.Do(func() {
			close(reached)
			<-release
		})
	})
	batches := make([][][]float64, k+1)
	ids := make([][]int, k+1)
	errs := make([]error, k+1)
	var wg sync.WaitGroup
	add := func(i int) {
		defer wg.Done()
		ids[i], errs[i] = d.AddBatch(batches[i])
	}
	batches[0] = synth.Gaussian[[]float64](rand.New(rand.NewSource(40)), 1, 4, 1)
	wg.Add(1)
	go add(0)
	<-reached // the first flush now holds its fsync
	for i := 1; i <= k; i++ {
		batches[i] = synth.Gaussian[[]float64](rand.New(rand.NewSource(int64(40+i))), per, 4, 1)
		wg.Add(1)
		go add(i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(d.reqs) != k; runtime.Gosched() {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d adders queued", len(d.reqs), k)
		}
	}
	closed := make(chan error, 1)
	if closing {
		go func() { closed <- d.Close() }()
		for !d.isClosed() {
			runtime.Gosched()
		}
	}
	close(release)
	wg.Wait()
	if closing {
		if err := <-closed; err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("adder %d: %v", i, err)
		}
		for j := 1; j < len(ids[i]); j++ {
			if ids[i][j] != ids[i][j-1]+1 {
				t.Fatalf("adder %d: non-contiguous ids %v", i, ids[i])
			}
		}
	}
	snap := d.Metrics()
	for _, name := range []string{"ingest.batches", "wal.fsyncs", "wal.records"} {
		if got := snap.Counters[name]; got != 2 {
			t.Fatalf("%s = %d, want 2 (the held flush, then the %d queued adders as one)", name, got, k)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	if h := d2.Health(); h.ReplayedRecords != 2 || h.ReplayedVectors != 1+k*per {
		t.Fatalf("replay after reopen: %+v, want 2 records of %d vectors", h, 1+k*per)
	}
	for i, b := range batches {
		for j, want := range b {
			got, ok := d2.VectorOK(ids[i][j])
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("adder %d vector %d: replayed %v, want %v", i, j, got, want)
			}
		}
	}
}

func (d *DurableDatabase) isClosed() bool {
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	return d.closed
}

// TestDurableCloseWithFullQueue closes the database while the batcher is
// held inside an fsync and the request queue is full: Close must not
// deadlock against the blocked adder, and every add must be either
// acknowledged and replayed after a reopen, or refused with ErrReadOnly.
func TestDurableCloseWithFullQueue(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d := openTestDB(t, dir, walTuning{batch: 1, rotateBytes: walRotateBytes})
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.Set(faultinject.WALPreFsync, func() {
		once.Do(func() {
			close(reached)
			<-release
		})
	})
	n := 2 + cap(d.reqs) // one held in flush, a full queue, one blocked on it
	vecs := synth.Gaussian[[]float64](rand.New(rand.NewSource(50)), n, 4, 1)
	ids := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = d.Add(vecs[i])
		}(i)
		if i == 0 {
			<-reached
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(d.reqs) != cap(d.reqs); runtime.Gosched() {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("queue holds %d of %d", len(d.reqs), cap(d.reqs))
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	close(release)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	acked := map[int][]float64{}
	for i, err := range errs {
		switch {
		case err == nil:
			acked[ids[i]] = vecs[i]
		case !errors.Is(err, ErrReadOnly):
			t.Fatalf("add %d: %v, want an ack or ErrReadOnly", i, err)
		}
	}
	if len(acked) < n-1 {
		t.Fatalf("%d of %d adds acknowledged; only the blocked one may be refused", len(acked), n)
	}
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	if h := d2.Health(); h.ReplayedVectors != len(acked) {
		t.Fatalf("replayed %d vectors, want the %d acknowledged", h.ReplayedVectors, len(acked))
	}
	for id, want := range acked {
		if got, ok := d2.VectorOK(id); !ok || !slices.Equal(got, want) {
			t.Fatalf("id %d: replayed %v, want %v", id, got, want)
		}
	}
}

func TestDurableDegradedModeOnFsyncError(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	defer d.Close()
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(4)), 5, 4, 1)); err != nil {
		t.Fatalf("healthy AddBatch: %v", err)
	}
	faultinject.Set(faultinject.WALFsyncError, nil)
	_, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(5)), 5, 4, 1))
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fsync failure surfaced as %v, want ErrReadOnly", err)
	}
	faultinject.Reset()
	// Degradation is sticky: storage came back but the process stays
	// read-only until restarted.
	if _, err := d.Add(synth.Gaussian[[]float64](rand.New(rand.NewSource(6)), 1, 4, 1)[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("second add after degrade: %v", err)
	}
	h := d.Health()
	if !h.ReadOnly || h.Err == "" {
		t.Fatalf("health not degraded: %+v", h)
	}
	// Reads still work.
	if res := d.SearchByExample(synth.Gaussian[[]float64](rand.New(rand.NewSource(7)), 1, 4, 1)[0], 5); len(res) != 5 {
		t.Fatalf("search in degraded mode returned %d results", len(res))
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("checkpoint in degraded mode: %v", err)
	}
}

func TestDurableRejectsBadVectors(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	defer d.Close()
	if _, err := d.Add([]float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("wrong dim: %v", err)
	}
	if _, err := d.Add([]float64{1, 2, math.NaN(), 4}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := d.Add([]float64{1, 2, math.Inf(1), 4}); err == nil {
		t.Fatal("Inf accepted")
	}
	if ids, err := d.AddBatch(nil); err != nil || ids != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
	if d.Len() != 32 {
		t.Fatalf("rejected vectors mutated the store: Len=%d", d.Len())
	}
}

func TestDurableTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(8)), 10, 4, 1)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: tack garbage half-record onto the log.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write([]byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	f.Close()

	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	h := d2.Health()
	if h.TruncatedBytes != 3 {
		t.Fatalf("expected 3 truncated bytes, health %+v", h)
	}
	if h.Items != 42 {
		t.Fatalf("torn tail lost acked writes: %+v", h)
	}
}

func TestDurableMidLogCorruptionRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, walTuning{batch: 1, rotateBytes: walRotateBytes})
	// Sequential adds so the log holds several records.
	for _, v := range synth.Gaussian[[]float64](rand.New(rand.NewSource(9)), 6, 4, 1) {
		if _, err := d.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	st, err := wal.Replay(walPath, func([]byte) error { return nil })
	if err != nil || st.Records < 2 {
		t.Fatalf("need ≥2 records, got %d (err %v)", st.Records, err)
	}
	// Flip a payload bit inside the first record: the valid records
	// after it prove this is not a torn tail, so boot must refuse
	// rather than silently drop acknowledged writes.
	raw[8+4] ^= 0x01
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}
	if _, err := OpenDatabase(dir, DurableOptions{}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-log corruption boot: %v, want ErrCorruptLog", err)
	}
}

func TestDurableReplaySkipsSnapshotCoveredRecords(t *testing.T) {
	// Crash window: rotation renamed wal.log → wal.old and wrote the new
	// snapshot, but the process died before deleting wal.old. Boot must
	// apply wal.old idempotently (all its records are covered by the
	// snapshot) and lose nothing.
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(10)), 10, 4, 1)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Hand-build the crash state: current wal.log becomes wal.old, and
	// the snapshot is rewritten to cover everything.
	if err := os.Rename(filepath.Join(dir, "wal.log"), filepath.Join(dir, "wal.old")); err != nil {
		t.Fatalf("rename: %v", err)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	h := d2.Health()
	if h.Items != 42 {
		t.Fatalf("idempotent replay: Items=%d want 42 (%+v)", h.Items, h)
	}
	if h.ReplayedVectors != 0 {
		t.Fatalf("covered records re-applied %d vectors", h.ReplayedVectors)
	}
}

func TestDurableFirstBootRequiresSeed(t *testing.T) {
	if _, err := OpenDatabase(t.TempDir(), DurableOptions{}); err == nil {
		t.Fatal("empty dir with no seed opened")
	}
}

func TestDurableSnapshotWriterRoundTrip(t *testing.T) {
	db, err := NewDatabase(synth.Gaussian[[]float64](rand.New(rand.NewSource(11)), 50, 6, 1))
	if err != nil {
		t.Fatalf("NewDatabase: %v", err)
	}
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	back, err := RestoreDatabase(bytes.NewReader(buf.Bytes()), IndexOptions{})
	if err != nil {
		t.Fatalf("RestoreDatabase: %v", err)
	}
	requireSameSearch(t, db, back)

	// Corruption: truncation and a flipped payload bit both surface
	// ErrCorruptSnapshot.
	img := buf.Bytes()
	if _, err := RestoreDatabase(bytes.NewReader(img[:len(img)/2]), IndexOptions{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("truncated snapshot: %v", err)
	}
	mut := append([]byte(nil), img...)
	mut[len(mut)/2] ^= 0x10
	if _, err := RestoreDatabase(bytes.NewReader(mut), IndexOptions{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("mutated snapshot: %v", err)
	}
}

func TestDurableCloseIdempotentAndRejectsLateAdds(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.Add(synth.Gaussian[[]float64](rand.New(rand.NewSource(12)), 1, 4, 1)[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("add after close: %v", err)
	}
}

func TestDurableMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, fixedWAL)
	defer d.Close()
	if _, err := d.AddBatch(synth.Gaussian[[]float64](rand.New(rand.NewSource(13)), 8, 4, 1)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	snap := d.Metrics()
	for _, name := range []string{"wal.fsyncs", "wal.records", "wal.bytes", "ingest.batches", "ingest.acked"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("counter %s is zero: %+v", name, snap.Counters)
		}
	}
	if _, ok := snap.Histograms["wal.fsync_seconds"]; !ok {
		t.Fatalf("missing wal.fsync_seconds histogram")
	}
	if _, ok := snap.Histograms["ingest.ack_seconds"]; !ok {
		t.Fatalf("missing ingest.ack_seconds histogram")
	}
	_ = fmt.Sprintf("%v", snap)
}
