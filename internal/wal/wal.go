// Package wal is a write-ahead log for the durable ingest path: an
// append-only file of length-prefixed, CRC32C-checksummed records with
// torn-tail detection and truncation on replay.
//
// Record layout (little-endian):
//
//	[u32 payload length][u32 CRC32C(payload)][payload bytes]
//
// Commit appends one record and returns only after an fsync covers it.
// The writer does no group commit of its own: the durable layer's
// batcher already coalesces concurrent adds into one record per fsync.
//
// Replay streams records back in append order. A tail that ends
// mid-record — the image left by a crash or power cut during a write —
// is detected by the length prefix and checksum, truncated off the
// file, and reported; the records before it are intact by construction.
// A checksum failure in the *middle* of the log (bytes that cannot be a
// torn tail because a valid record follows them) is a disk-corruption
// signal, not a crash artifact, and surfaces as ErrCorruptLog instead
// of silently dropping acknowledged history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// ErrCorruptLog reports a checksum or framing failure that cannot be a
// torn tail: acknowledged records after the damage would be lost by
// truncation, so replay refuses to guess and the operator must restore
// from a snapshot.
var ErrCorruptLog = errors.New("wal: corrupt log")

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("wal: closed")

const headerSize = 8 // u32 length + u32 crc

// maxRecordBytes bounds a single record (64 MiB). A length prefix above
// it is treated as framing damage, not an instruction to allocate.
const maxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics holds optional observability handles the Writer records into;
// nil fields are skipped (zero value = no instrumentation).
type Metrics struct {
	AppendSeconds *obs.Histogram // wall time of Commit's append phase
	FsyncSeconds  *obs.Histogram // wall time of each fsync
	Fsyncs        *obs.Counter   // fsync calls issued
	Records       *obs.Counter   // records appended
	Bytes         *obs.Counter   // bytes appended (headers included)
}

// Writer appends records to a write-ahead log file. Safe for concurrent
// use; a write or fsync failure is sticky — every later Commit fails
// with the same error, so a durable layer above can flip read-only.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	met    Metrics
	bytes  int64 // bytes appended since Open (headers included)
	err    error // sticky fatal error
	closed bool
}

// Open opens (creating if absent) the log at path for appending. The
// file must end on a record boundary — run Replay first, which
// truncates a torn tail.
func Open(path string, met Metrics) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Writer{f: f, path: path, met: met}, nil
}

// AppendedBytes returns the bytes appended since Open.
func (w *Writer) AppendedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// Commit appends payload as one record and returns once an fsync
// covers it. Commits serialize on the writer's mutex, one fsync each.
func (w *Writer) Commit(payload []byte) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if err := w.appendRecord(payload); err != nil {
		w.err = err
		return err
	}
	if w.met.AppendSeconds != nil {
		w.met.AppendSeconds.Observe(time.Since(start).Seconds())
	}
	if err := w.fsync(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// appendRecord frames payload and writes it to the OS buffer. Caller
// holds w.mu.
func (w *Writer) appendRecord(payload []byte) error {
	buf := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	if faultinject.Enabled(faultinject.WALTornAppend) {
		// Write a prefix that ends mid-record — the torn tail a power
		// cut leaves — flush it to disk, then fire the hook (a crash
		// harness SIGKILLs the process here). If the process survives,
		// the writer is poisoned like any other append failure.
		if _, err := w.f.Write(buf[:len(buf)/2]); err == nil {
			_ = w.f.Sync()
		}
		faultinject.Fire(faultinject.WALTornAppend)
		return fmt.Errorf("wal: torn append injected at %s", w.path)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append %s: %w", w.path, err)
	}
	w.bytes += int64(len(buf))
	if w.met.Records != nil {
		w.met.Records.Inc()
	}
	if w.met.Bytes != nil {
		w.met.Bytes.Add(int64(len(buf)))
	}
	return nil
}

// fsync runs one fsync with the crash/fault hooks around it. Caller
// holds w.mu.
func (w *Writer) fsync() error {
	faultinject.Fire(faultinject.WALPreFsync)
	start := time.Now()
	var err error
	if faultinject.Enabled(faultinject.WALFsyncError) {
		faultinject.Fire(faultinject.WALFsyncError)
		err = fmt.Errorf("wal: fsync %s: injected disk error", w.path)
	} else if serr := w.f.Sync(); serr != nil {
		err = fmt.Errorf("wal: fsync %s: %w", w.path, serr)
	}
	if w.met.FsyncSeconds != nil {
		w.met.FsyncSeconds.Observe(time.Since(start).Seconds())
	}
	if w.met.Fsyncs != nil {
		w.met.Fsyncs.Inc()
	}
	if err == nil {
		faultinject.Fire(faultinject.WALPostFsync)
	}
	return err
}

// Close closes the file. Every record is already synced by its own
// Commit. Further Commits fail with ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// ReplayStats describes what a replay recovered and repaired.
type ReplayStats struct {
	// Records is the number of intact records streamed to apply.
	Records int
	// Bytes is the intact prefix length (what the log was truncated to
	// when a torn tail was dropped).
	Bytes int64
	// TruncatedBytes is the torn-tail length removed from the file
	// (0 for a clean log).
	TruncatedBytes int64
}

// Replay streams every intact record of the log at path to apply, in
// append order. A missing file is an empty log. A torn tail is
// truncated off the file and reported in the stats; damage that cannot
// be a torn tail returns ErrCorruptLog. An apply error stops the replay
// and is returned as-is.
func Replay(path string, apply func(payload []byte) error) (ReplayStats, error) {
	var stats ReplayStats
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	good := int64(0) // offset of the first byte not covered by intact records
	off := int64(0)
	n := int64(len(data))
	for off < n {
		rest := n - off
		if rest < headerSize {
			break // torn header
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxRecordBytes || off+headerSize+length > n {
			// Either a torn payload or a smashed length field; in both
			// cases nothing after this offset parses, so it is a tail.
			break
		}
		payload := data[off+headerSize : off+headerSize+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			// Full payload present but checksum wrong. If a valid record
			// follows, this is mid-file corruption — truncating would
			// drop acknowledged history, so refuse.
			if recordAt(data, off+headerSize+length) {
				return stats, fmt.Errorf("%w: checksum mismatch at offset %d of %s (followed by intact records)",
					ErrCorruptLog, off, path)
			}
			break
		}
		if err := apply(payload); err != nil {
			return stats, err
		}
		off += headerSize + length
		good = off
		stats.Records++
	}
	stats.Bytes = good
	if good < n {
		stats.TruncatedBytes = n - good
		if err := truncate(path, good); err != nil {
			return stats, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	return stats, nil
}

// recordAt reports whether a complete, checksum-valid record starts at
// offset off.
func recordAt(data []byte, off int64) bool {
	n := int64(len(data))
	if off+headerSize > n {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if length > maxRecordBytes || off+headerSize+length > n {
		return false
	}
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	return crc32.Checksum(data[off+headerSize:off+headerSize+length], castagnoli) == sum
}

// truncate shortens the file at path to size bytes and syncs it.
func truncate(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
