package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func mustCommit(t *testing.T, w *Writer, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if err := w.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
}

func replayAll(t *testing.T, path string) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	stats, err := Replay(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestCommitReplayRoundTrip(t *testing.T) {
	path := walPath(t)
	w, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i%17))))
		want = append(want, p)
		mustCommit(t, w, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, path)
	if stats.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", stats.TruncatedBytes)
	}
	if stats.Records != len(want) {
		t.Fatalf("replayed %d records, want %d", stats.Records, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "absent.log"), func([]byte) error {
		t.Fatal("apply called on missing log")
		return nil
	})
	if err != nil || stats.Records != 0 {
		t.Fatalf("missing log: stats=%+v err=%v", stats, err)
	}
}

// TestGroupCommit hammers one writer from many goroutines and asserts
// every record survives replay, each behind an fsync of its own: the
// writer serializes Commits and leaves coalescing to its caller.
func TestGroupCommit(t *testing.T) {
	path := walPath(t)
	reg := obs.NewRegistry()
	met := Metrics{Fsyncs: reg.Counter("fsyncs"), Records: reg.Counter("records")}
	w, err := Open(path, met)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 32
	var wg sync.WaitGroup
	var failed atomic.Int32
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := w.Commit([]byte(fmt.Sprintf("g%02d-i%02d", g, i))); err != nil {
					failed.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d commits failed", failed.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, path)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[string(p)] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replay lost records: %d unique of %d", len(seen), writers*perWriter)
	}
	if f, r := met.Fsyncs.Value(), met.Records.Value(); f != writers*perWriter || r != writers*perWriter {
		t.Fatalf("fsyncs = %d, records = %d, want one fsync per record (%d)", f, r, writers*perWriter)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := walPath(t)
	w, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w, []byte("alpha"), []byte("beta"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a valid header + half a payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("gamma-never-finished")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.Write(append(hdr[:], payload[:len(payload)/2]...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, stats := replayAll(t, path)
	if len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("replay after torn tail: %q", got)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The file must now be clean: replay again, nothing truncated.
	got2, stats2 := replayAll(t, path)
	if len(got2) != 2 || stats2.TruncatedBytes != 0 {
		t.Fatalf("second replay not clean: %d records, %d truncated", len(got2), stats2.TruncatedBytes)
	}
	// And appends after the repair extend it correctly.
	w2, err := Open(path, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w2, []byte("delta"))
	w2.Close()
	got3, _ := replayAll(t, path)
	if len(got3) != 3 || string(got3[2]) != "delta" {
		t.Fatalf("append after repair: %q", got3)
	}
}

func TestTornHeaderTruncated(t *testing.T) {
	path := walPath(t)
	w, _ := Open(path, Metrics{})
	mustCommit(t, w, []byte("one"))
	w.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{0x03, 0x00, 0x00}) // 3 of 8 header bytes
	f.Close()
	got, stats := replayAll(t, path)
	if len(got) != 1 || stats.TruncatedBytes != 3 {
		t.Fatalf("torn header: records=%d truncated=%d", len(got), stats.TruncatedBytes)
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	path := walPath(t)
	w, _ := Open(path, Metrics{})
	mustCommit(t, w, []byte("first-record"), []byte("second-record"), []byte("third-record"))
	w.Close()
	// Flip a payload bit of the SECOND record; the third stays valid, so
	// this cannot be a torn tail.
	data, _ := os.ReadFile(path)
	off := 8 + len("first-record") + 8 + 3 // inside second payload
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var applied int
	_, err := Replay(path, func([]byte) error { applied++; return nil })
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-file corruption: err=%v, want ErrCorruptLog", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d records before detecting corruption, want 1", applied)
	}
	// The file must NOT have been truncated (no silent loss of record 3).
	after, _ := os.ReadFile(path)
	if len(after) != len(data) {
		t.Fatalf("corrupt log truncated from %d to %d bytes", len(data), len(after))
	}
}

func TestFsyncErrorIsSticky(t *testing.T) {
	defer faultinject.Reset()
	path := walPath(t)
	w, _ := Open(path, Metrics{})
	mustCommit(t, w, []byte("good"))
	faultinject.Set(faultinject.WALFsyncError, nil)
	doomed := w.Commit([]byte("doomed"))
	if doomed == nil {
		t.Fatal("commit with injected fsync error succeeded")
	}
	faultinject.Clear(faultinject.WALFsyncError)
	if err := w.Commit([]byte("after")); err != doomed {
		t.Fatalf("commit after fsync error: %v, want the sticky %v", err, doomed)
	}
	w.Close()
}

func TestTornAppendInjection(t *testing.T) {
	defer faultinject.Reset()
	path := walPath(t)
	w, _ := Open(path, Metrics{})
	mustCommit(t, w, []byte("committed"))
	faultinject.Set(faultinject.WALTornAppend, nil)
	if err := w.Commit([]byte("torn-away-payload")); err == nil {
		t.Fatal("torn append reported success")
	}
	faultinject.Reset()
	w.Close()
	got, stats := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "committed" {
		t.Fatalf("replay after torn append: %q", got)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("torn append left no tail to truncate")
	}
}

func TestCommitAfterClose(t *testing.T) {
	w, _ := Open(walPath(t), Metrics{})
	w.Close()
	if err := w.Commit([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
}

// FuzzReplay feeds arbitrary bytes through Replay (on a copy) and
// asserts it never panics, never reports more intact bytes than the
// file holds, and that a replay of the repaired file is clean.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 42})
	seed := func(payloads ...string) []byte {
		var buf bytes.Buffer
		for _, p := range payloads {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(p), crc32.MakeTable(crc32.Castagnoli)))
			buf.Write(hdr[:])
			buf.WriteString(p)
		}
		return buf.Bytes()
	}
	f.Add(seed("hello", "world"))
	f.Add(seed("x")[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		stats, err := Replay(path, func([]byte) error { return nil })
		if err != nil {
			if errors.Is(err, ErrCorruptLog) {
				return // refused, file untouched: fine
			}
			t.Fatalf("unexpected replay error: %v", err)
		}
		if stats.Bytes+stats.TruncatedBytes != int64(len(data)) {
			t.Fatalf("bytes %d + truncated %d != input %d", stats.Bytes, stats.TruncatedBytes, len(data))
		}
		stats2, err := Replay(path, func([]byte) error { return nil })
		if err != nil || stats2.TruncatedBytes != 0 || stats2.Records != stats.Records {
			t.Fatalf("repaired log not clean: %+v err=%v", stats2, err)
		}
	})
}
