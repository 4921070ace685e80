package qcluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/index"
)

// This file is the database snapshot format: a versioned, checksummed
// binary image of the vector store that OpenDatabase boots from and
// snapshot rotation writes atomically (write-temp → fsync → rename).
//
// Layout (little-endian):
//
//	[8]  magic "QCDBSNP1"
//	[4]  u32 dim
//	[8]  u64 vector count
//	[..] count×dim float64 components, row-major
//	[4]  u32 CRC32C over everything after the magic
//
// A truncated or bit-flipped file fails the length or checksum test and
// surfaces ErrCorruptSnapshot instead of booting a silently wrong
// database.

var snapshotMagic = [8]byte{'Q', 'C', 'D', 'B', 'S', 'N', 'P', '1'}

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotVectors bounds the vector count a snapshot header may
// claim, so a smashed header cannot drive a giant allocation.
const maxSnapshotVectors = 1 << 33

// Snapshot writes a consistent, checksummed image of the vector store
// to w. The store is copied under the read lock (so concurrent Adds are
// either fully included or fully excluded — never torn mid-batch) and
// encoded outside it, so disk latency never blocks writers.
func (db *Database) Snapshot(w io.Writer) (err error) {
	defer barrier("Snapshot", &err)
	dim, flat := db.flatCopy()
	return writeSnapshot(w, dim, flat)
}

// flatCopy returns the dimensionality and a private copy of the
// contiguous component block.
func (db *Database) flatCopy() (int, []float64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Dim(), append([]float64(nil), db.store.Flat()...)
}

// writeSnapshot encodes one store image (see the format comment above).
func writeSnapshot(w io.Writer, dim int, flat []float64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("qcluster: snapshot: %w", err)
	}
	crc := crc32.New(snapCastagnoli)
	out := io.MultiWriter(bw, crc)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(dim))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(flat)/dim))
	if _, err := out.Write(hdr[:]); err != nil {
		return fmt.Errorf("qcluster: snapshot: %w", err)
	}
	var chunk [8 << 10]byte
	used := 0
	for _, x := range flat {
		binary.LittleEndian.PutUint64(chunk[used:used+8], math.Float64bits(x))
		used += 8
		if used == len(chunk) {
			if _, err := out.Write(chunk[:]); err != nil {
				return fmt.Errorf("qcluster: snapshot: %w", err)
			}
			used = 0
		}
	}
	if used > 0 {
		if _, err := out.Write(chunk[:used]); err != nil {
			return fmt.Errorf("qcluster: snapshot: %w", err)
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fmt.Errorf("qcluster: snapshot: %w", err)
	}
	return bw.Flush()
}

// readSnapshot decodes a store image written by Snapshot, verifying the
// magic, the shape and the checksum. Corruption of any kind surfaces an
// error wrapping ErrCorruptSnapshot.
func readSnapshot(r io.Reader) (dim int, flat []float64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, nil, fmt.Errorf("qcluster: snapshot header: %w: %w", ErrCorruptSnapshot, err)
	}
	if magic != snapshotMagic {
		return 0, nil, fmt.Errorf("qcluster: snapshot magic %q: %w", magic[:], ErrCorruptSnapshot)
	}
	crc := crc32.New(snapCastagnoli)
	in := io.TeeReader(br, crc)
	var hdr [12]byte
	if _, err := io.ReadFull(in, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("qcluster: snapshot header: %w: %w", ErrCorruptSnapshot, err)
	}
	dim = int(binary.LittleEndian.Uint32(hdr[0:4]))
	count := binary.LittleEndian.Uint64(hdr[4:12])
	if dim <= 0 || count > maxSnapshotVectors {
		return 0, nil, fmt.Errorf("qcluster: snapshot claims dim %d × %d vectors: %w", dim, count, ErrCorruptSnapshot)
	}
	flat = make([]float64, 0, int(count)*dim)
	var chunk [8 << 10]byte
	remaining := int(count) * dim * 8
	for remaining > 0 {
		n := len(chunk)
		if remaining < n {
			n = remaining
		}
		if _, err := io.ReadFull(in, chunk[:n]); err != nil {
			return 0, nil, fmt.Errorf("qcluster: snapshot truncated: %w: %w", ErrCorruptSnapshot, err)
		}
		for off := 0; off < n; off += 8 {
			flat = append(flat, math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:off+8])))
		}
		remaining -= n
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("qcluster: snapshot checksum missing: %w: %w", ErrCorruptSnapshot, err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != sum {
		return 0, nil, fmt.Errorf("qcluster: snapshot checksum mismatch: %w", ErrCorruptSnapshot)
	}
	return dim, flat, nil
}

// RestoreDatabase rebuilds a Database from a Snapshot image. The index
// is bulk-loaded, so searches over the restored database are
// bit-identical to searches over the database that wrote the snapshot
// (results order ties deterministically on (dist, id)).
func RestoreDatabase(r io.Reader, opt IndexOptions) (_ *Database, err error) {
	defer barrier("RestoreDatabase", &err)
	dim, flat, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newDatabaseFlat(flat, dim, opt)
}

// newDatabaseFlat builds a Database around an already-contiguous
// component block (retained, not copied).
func newDatabaseFlat(flat []float64, dim int, opt IndexOptions) (*Database, error) {
	store, err := index.NewStoreFlat(flat, dim)
	if err != nil {
		return nil, fmt.Errorf("qcluster: %w", err)
	}
	return newDatabaseFromStore(store, opt), nil
}

// writeSnapshotFile writes a snapshot image crash-safely: encode to
// path.tmp, fsync the file, rename over path, fsync the directory. A
// crash at any point leaves either the old complete file or the new
// complete file — never a half-written one. The faultinject
// SnapshotMidRename point fires between the fsync and the rename (the
// widest window a crash can hit).
func writeSnapshotFile(path string, dim int, flat []float64) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("qcluster: snapshot temp: %w", err)
	}
	if err := writeSnapshot(f, dim, flat); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("qcluster: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("qcluster: snapshot close: %w", err)
	}
	faultinject.Fire(faultinject.SnapshotMidRename)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("qcluster: snapshot rename: %w", err)
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path, making a preceding
// rename durable.
func syncDir(path string) error {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("qcluster: open dir for fsync: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("qcluster: dir fsync: %w", err)
	}
	return nil
}

// loadSnapshotFile reads a snapshot image from path. A missing file
// returns (0, nil, nil).
func loadSnapshotFile(path string) (int, []float64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("qcluster: open snapshot: %w", err)
	}
	defer f.Close()
	return readSnapshot(f)
}
