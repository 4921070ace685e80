package qcluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/synth"
)

// The crash-recovery harness proves the durability contract the hard
// way: a child process ingests into a durable directory and is
// SIGKILLed at an injected fault point — before the fsync, after the
// fsync, mid-record-write (torn tail), or between a snapshot's write
// and its rename. The parent then reopens the directory and checks
// that exactly the acknowledged writes survive:
//
//   - every acked id is present with its exact vector,
//   - anything beyond the acks is complete batches of valid vectors
//     (durable but unacknowledged — the write equivalent of an ack
//     lost in flight),
//   - searches over the recovered database are bit-identical to a
//     fresh in-memory database over the same vectors,
//   - the recovered database accepts new writes.
//
// The child re-execs this test binary (crashHelperEnv selects helper
// mode), so the harness needs no separately built command.

const (
	crashHelperEnv = "QCLUSTER_CRASH_HELPER"
	crashDirEnv    = "QCLUSTER_CRASH_DIR"
	crashPointEnv  = "QCLUSTER_CRASH_POINT"
	crashAtEnv     = "QCLUSTER_CRASH_AT"
)

const (
	crashSeedN = 32 // seed collection size, drawn from seed 1
	crashDim   = 4
)

// crashVec is the deterministic vector assigned id (seed ids included),
// so parent and child derive identical contents independently.
func crashVec(id int) []float64 {
	if id < crashSeedN {
		return synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), crashSeedN, crashDim, 1)[id]
	}
	return synth.Gaussian[[]float64](rand.New(rand.NewSource(0x9E3779B9+int64(id))), 1, crashDim, 1)[0]
}

// TestCrashHelperProcess is not a test: it is the child body, entered
// only when re-exec'd with crashHelperEnv set. It ingests sequentially,
// printing "acked <id>" for every durable acknowledgement, and dies by
// SIGKILL when the armed fault point fires.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("helper process body; run via TestCrashRecovery")
	}
	dir := os.Getenv(crashDirEnv)
	point := os.Getenv(crashPointEnv)
	at, _ := strconv.Atoi(os.Getenv(crashAtEnv))
	if at < 1 {
		at = 1
	}
	hits := 0
	faultinject.Set(point, func() {
		hits++
		if hits == at {
			// Raw SIGKILL: no deferred cleanup, no flushes — the crash
			// the recovery path must survive.
			p, _ := os.FindProcess(os.Getpid())
			_ = p.Kill()
			select {}
		}
	})
	d, err := openDatabase(dir, DurableOptions{Seed: synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), crashSeedN, crashDim, 1)}, walTuning{
		batch: 4,
		// Tiny threshold: rotations happen constantly, so the snapshot
		// fault points get exercised by ordinary ingest volume.
		rotateBytes: 2048,
	})
	if err != nil {
		fmt.Printf("open-error %v\n", err)
		os.Exit(3)
	}
	out := bufio.NewWriter(os.Stdout)
	for i := 0; i < 4000; i++ {
		id, err := d.Add(crashVec(d.Len()))
		if err != nil {
			// A poisoned writer (torn-append injection) degrades the
			// database instead of crashing; report and stop so the
			// parent can still verify the acked prefix. (Normally the
			// kill lands first.)
			fmt.Fprintf(out, "add-error %v\n", err)
			break
		}
		fmt.Fprintf(out, "acked %d\n", id)
		out.Flush() // ack must be on the pipe before the next write can die
	}
	out.Flush()
	os.Exit(0)
}

// runCrashChild re-execs the test binary in helper mode and collects
// the acked ids until the child dies.
func runCrashChild(t *testing.T, dir, point string, at int) (acked []int, killed bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperProcess", "-test.v=false")
	cmd.Env = append(os.Environ(),
		crashHelperEnv+"=1",
		crashDirEnv+"="+dir,
		crashPointEnv+"="+point,
		crashAtEnv+"="+strconv.Itoa(at),
	)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		killed = false
	} else if ee, ok := err.(*exec.ExitError); ok {
		killed = ee.ExitCode() == -1 // terminated by signal
		if !killed && ee.ExitCode() == 3 {
			t.Fatalf("child failed to open %s:\n%s%s", dir, stdout.String(), stderr.String())
		}
	} else {
		t.Fatalf("running child: %v", err)
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if id, ok := strings.CutPrefix(line, "acked "); ok {
			n, err := strconv.Atoi(id)
			if err != nil {
				t.Fatalf("bad ack line %q", line)
			}
			acked = append(acked, n)
		}
	}
	return acked, killed
}

// verifyRecovery reopens the crashed directory and checks the
// durability contract against the acked set.
func verifyRecovery(t *testing.T, dir, point string, acked []int) {
	t.Helper()
	d, err := OpenDatabase(dir, DurableOptions{Seed: synth.Gaussian[[]float64](rand.New(rand.NewSource(1)), crashSeedN, crashDim, 1)})
	if err != nil {
		t.Fatalf("%s: reopening crashed dir: %v", point, err)
	}
	defer d.Close()

	maxAcked := crashSeedN - 1
	if len(acked) > 0 {
		maxAcked = acked[len(acked)-1]
	}
	if d.Len() <= maxAcked {
		t.Fatalf("%s: lost acknowledged writes: Len=%d, max acked id %d", point, d.Len(), maxAcked)
	}
	// Every recovered vector — acked or durable-but-unacked — must be
	// exactly the one the deterministic generator assigned its id.
	for id := 0; id < d.Len(); id++ {
		got, ok := d.VectorOK(id)
		if !ok {
			t.Fatalf("%s: id %d missing after recovery", point, id)
		}
		want := crashVec(id)
		for dd := range want {
			if math.Float64bits(got[dd]) != math.Float64bits(want[dd]) {
				t.Fatalf("%s: id %d component %d: %x, want %x",
					point, id, dd, math.Float64bits(got[dd]), math.Float64bits(want[dd]))
			}
		}
	}
	// Bit-identical search vs a fresh in-memory database over the
	// recovered collection.
	all := make([][]float64, d.Len())
	for id := range all {
		all[id] = crashVec(id)
	}
	ref, err := NewDatabase(all)
	if err != nil {
		t.Fatalf("%s: reference database: %v", point, err)
	}
	requireSameSearch(t, ref, d.Database)

	// The recovered database is live: it accepts and persists new writes.
	if _, err := d.Add(crashVec(d.Len())); err != nil {
		t.Fatalf("%s: add after recovery: %v", point, err)
	}
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns kill-9 child processes")
	}
	points := []struct {
		point string
		// hit picks which firing to kill at: late enough that acks and
		// (for snapshot points) rotations have happened, randomized so
		// repeated CI runs sample different interleavings.
		minHit, maxHit int
	}{
		{faultinject.WALPreFsync, 5, 60},
		{faultinject.WALPostFsync, 5, 60},
		{faultinject.WALTornAppend, 1, 1}, // poisons the writer on first fire
		{faultinject.SnapshotMidRename, 1, 4},
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for _, tc := range points {
		tc := tc
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			at := tc.minHit
			if tc.maxHit > tc.minHit {
				at += rng.Intn(tc.maxHit - tc.minHit)
			}
			acked, killed := runCrashChild(t, dir, tc.point, at)
			t.Logf("%s: killed=%v after %d acks (crash at hit %d)", tc.point, killed, len(acked), at)
			if !killed && tc.point != faultinject.WALTornAppend {
				t.Fatalf("%s: child survived 4000 adds without hitting the crash point", tc.point)
			}
			verifyRecovery(t, dir, tc.point, acked)
		})
	}
}

// TestCrashRecoveryBackToBack crashes the same directory twice in a row
// (post-fsync, then torn append) before verifying: recovery must
// compose across repeated crashes, not just survive one.
func TestCrashRecoveryBackToBack(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns kill-9 child processes")
	}
	dir := t.TempDir()
	acked1, _ := runCrashChild(t, dir, faultinject.WALPostFsync, 20)
	acked2, _ := runCrashChild(t, dir, faultinject.WALTornAppend, 1)
	acked := append(acked1, acked2...)
	verifyRecovery(t, dir, "back-to-back", acked)
}

// TestDurableConcurrentMixedWorkload is the -race regression: durable
// ingest (single and batch), searches, feedback sessions and snapshots
// all run concurrently, and afterwards a snapshot-restore plus a warm
// reopen must both reproduce the final state exactly.
func TestDurableConcurrentMixedWorkload(t *testing.T) {
	dir := t.TempDir()
	d := openTestDB(t, dir, walTuning{batch: 8, rotateBytes: walRotateBytes})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: two single-add, two batch.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, v := range synth.Gaussian[[]float64](rand.New(rand.NewSource(int64(20+w))), 60, 4, 1) {
				if _, err := d.Add(v); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vecs := synth.Gaussian[[]float64](rand.New(rand.NewSource(int64(30+w))), 60, 4, 1)
			for i := 0; i < len(vecs); i += 6 {
				if _, err := d.AddBatch(vecs[i : i+6]); err != nil {
					t.Errorf("AddBatch: %v", err)
					return
				}
			}
		}(w)
	}
	// Searchers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probes := synth.Gaussian[[]float64](rand.New(rand.NewSource(int64(40+w))), 16, 4, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range probes {
					if res := d.SearchByExample(p, 5); len(res) != 5 {
						t.Errorf("search returned %d results", len(res))
						return
					}
				}
			}
		}(w)
	}
	// Feedback session riding along.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := d.NewSession(synth.Gaussian[[]float64](rand.New(rand.NewSource(50)), 1, 4, 1)[0], Options{})
		for r := 0; r < 10; r++ {
			res := sess.Results(8)
			pts := make([]Point, 0, 3)
			for _, rr := range res[:3] {
				pts = append(pts, Point{ID: rr.ID, Vec: d.Vector(rr.ID), Score: 1})
			}
			if err := sess.MarkRelevant(pts); err != nil {
				t.Errorf("MarkRelevant: %v", err)
				return
			}
		}
	}()
	// Snapshotter: concurrent consistent images.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			if err := d.Snapshot(&buf); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			if _, err := RestoreDatabase(bytes.NewReader(buf.Bytes()), IndexOptions{}); err != nil {
				t.Errorf("Restore mid-load: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for writers + feedback + snapshotter, then release searchers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	writersDone := make(chan struct{})
	go func() {
		// Writers are the finite goroutines; searchers spin until stop.
		// Close stop once the finite work has had time to finish.
		for d.Len() < 32+2*60+2*60 {
			time.Sleep(5 * time.Millisecond)
		}
		close(writersDone)
	}()
	select {
	case <-writersDone:
		close(stop)
	case <-timer.C:
		close(stop)
		t.Fatal("writers did not finish in 60s")
	}
	<-done

	wantLen := 32 + 4*60
	if d.Len() != wantLen {
		t.Fatalf("final Len=%d, want %d", d.Len(), wantLen)
	}

	// Snapshot → restore reproduces the state bit-for-bit.
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatalf("final Snapshot: %v", err)
	}
	restored, err := RestoreDatabase(bytes.NewReader(buf.Bytes()), IndexOptions{})
	if err != nil {
		t.Fatalf("final Restore: %v", err)
	}
	requireSameSearch(t, d.Database, restored)

	// Warm reopen (snapshot + WAL replay) reproduces it too.
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2 := openTestDB(t, dir, fixedWAL)
	defer d2.Close()
	for id := 0; id < wantLen; id++ {
		a, b := d.Vector(id), d2.Vector(id)
		for dd := range a {
			if math.Float64bits(a[dd]) != math.Float64bits(b[dd]) {
				t.Fatalf("reopen vector %d differs at %d", id, dd)
			}
		}
	}
	requireSameSearch(t, d.Database, d2.Database)
}
