package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// ErrCorruptSnapshot tags every decode failure of a persisted query
// model (and, through the public alias, of database store snapshots):
// truncation, bit flips, framing damage and semantically impossible
// contents all wrap it, so callers can match the whole class with
// errors.Is and fall back to a cold session instead of crashing.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// Snapshot framing (little-endian), written since the durable-ingest
// release:
//
//	[4]  magic "QCMS"
//	[1]  format version (1)
//	[4]  u32 gob payload length
//	[4]  u32 CRC32C of the gob payload
//	[..] gob payload
//
// Load still accepts the headerless raw-gob files written before this
// framing existed (their first bytes cannot collide with the magic: a
// gob stream begins with a length byte + type id, never "QCMS").
var modelMagic = [4]byte{'Q', 'C', 'M', 'S'}

const modelFormatVersion = 1

// maxModelSnapshotBytes bounds the payload a header may claim (256 MiB)
// so a smashed length field cannot drive a giant allocation.
const maxModelSnapshotBytes = 256 << 20

var persistCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// modelSnapshot is the gob wire format of a query model: enough to
// restore the full feedback state (clusters with member points, seen-id
// set, options) so a retrieval session can be suspended and resumed.
type modelSnapshot struct {
	Options  Options
	Clusters []clusterSnapshot
	SeenIDs  []int
	// Rounds is the absorbed feedback-round count, so a restored model
	// resumes the session where it left off (snapshots written before
	// this field existed decode as 0 — gob skips absent fields).
	Rounds int
}

type clusterSnapshot struct {
	IDs    []int
	Vecs   []linalg.Vector
	Scores []float64
	// Exact statistics, so the restored model is bit-identical to the
	// saved one (recomputing them from the points would accumulate
	// different floating-point rounding than the incremental merge
	// formulas did).
	Mean    linalg.Vector
	Scatter *linalg.Matrix
	Weight  float64
}

// Save serializes the query model to w under a versioned, checksummed
// header, so a truncated or bit-flipped file is detected on Load
// instead of surfacing as a confusing gob decode error (or worse,
// decoding into a silently wrong model).
func (m *QueryModel) Save(w io.Writer) error {
	snap := modelSnapshot{Options: m.opt, Rounds: m.rounds}
	for id := range m.seen {
		snap.SeenIDs = append(snap.SeenIDs, id)
	}
	for _, c := range m.clusters {
		cs := clusterSnapshot{
			Mean:    c.Mean,
			Scatter: c.Scatter,
			Weight:  c.Weight,
		}
		for _, p := range c.Points {
			cs.IDs = append(cs.IDs, p.ID)
			cs.Vecs = append(cs.Vecs, p.Vec)
			cs.Scores = append(cs.Scores, p.Score)
		}
		snap.Clusters = append(snap.Clusters, cs)
	}
	return writeFramedSnapshot(w, &snap)
}

// writeFramedSnapshot gob-encodes snap and writes it under the
// versioned, checksummed header.
func writeFramedSnapshot(w io.Writer, snap *modelSnapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("core: encode query model: %w", err)
	}
	var hdr [13]byte
	copy(hdr[0:4], modelMagic[:])
	hdr[4] = modelFormatVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload.Bytes(), persistCastagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: write query model: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: write query model: %w", err)
	}
	return nil
}

// Load restores a query model saved with Save. Cluster statistics are
// restored exactly as saved, so a loaded model is indistinguishable
// from the original. Every corruption path — bad magic, unsupported
// version, short or over-long payload, checksum mismatch, gob damage,
// semantically impossible contents — returns an error wrapping
// ErrCorruptSnapshot. Headerless snapshots from before the framing
// existed still load.
func Load(r io.Reader) (*QueryModel, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("core: query model header: %w: %w", ErrCorruptSnapshot, err)
	}
	var payload io.Reader
	if head == modelMagic {
		var rest [9]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return nil, fmt.Errorf("core: query model header: %w: %w", ErrCorruptSnapshot, err)
		}
		if v := rest[0]; v != modelFormatVersion {
			return nil, fmt.Errorf("core: query model format version %d: %w", v, ErrCorruptSnapshot)
		}
		length := binary.LittleEndian.Uint32(rest[1:5])
		sum := binary.LittleEndian.Uint32(rest[5:9])
		if length > maxModelSnapshotBytes {
			return nil, fmt.Errorf("core: query model claims %d payload bytes: %w", length, ErrCorruptSnapshot)
		}
		buf := make([]byte, length)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("core: query model truncated: %w: %w", ErrCorruptSnapshot, err)
		}
		if crc32.Checksum(buf, persistCastagnoli) != sum {
			return nil, fmt.Errorf("core: query model checksum mismatch: %w", ErrCorruptSnapshot)
		}
		payload = bytes.NewReader(buf)
	} else {
		// Legacy headerless snapshot: hand the sniffed bytes back to gob.
		payload = io.MultiReader(bytes.NewReader(head[:]), r)
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(payload).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode query model: %w: %w", ErrCorruptSnapshot, err)
	}
	return restore(snap)
}

// restore validates a decoded snapshot and rebuilds the model. Gob
// guarantees only well-formed Go values, not model invariants, so every
// semantic constraint is re-checked here.
func restore(snap modelSnapshot) (*QueryModel, error) {
	if err := snap.Options.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrCorruptSnapshot, err)
	}
	m := New(snap.Options)
	if snap.Rounds < 0 {
		return nil, fmt.Errorf("core: %w: negative round count", ErrCorruptSnapshot)
	}
	m.rounds = snap.Rounds
	for _, id := range snap.SeenIDs {
		m.seen[id] = true
	}
	for _, cs := range snap.Clusters {
		if len(cs.IDs) != len(cs.Vecs) || len(cs.IDs) != len(cs.Scores) {
			return nil, fmt.Errorf("core: %w: cluster arrays disagree", ErrCorruptSnapshot)
		}
		if len(cs.IDs) == 0 {
			continue
		}
		dim := cs.Vecs[0].Dim()
		if cs.Mean.Dim() != dim || cs.Scatter == nil || cs.Scatter.Rows != dim || cs.Scatter.Cols != dim {
			return nil, fmt.Errorf("core: %w: statistics shape mismatch", ErrCorruptSnapshot)
		}
		c := cluster.New(dim)
		for i := range cs.IDs {
			if cs.Scores[i] <= 0 {
				return nil, fmt.Errorf("core: %w: non-positive score", ErrCorruptSnapshot)
			}
			if cs.Vecs[i].Dim() != dim {
				return nil, fmt.Errorf("core: %w: point dimension mismatch", ErrCorruptSnapshot)
			}
			c.Points = append(c.Points, cluster.Point{ID: cs.IDs[i], Vec: cs.Vecs[i], Score: cs.Scores[i]})
		}
		c.Mean = cs.Mean
		c.Scatter = cs.Scatter
		c.Weight = cs.Weight
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w: %w", ErrCorruptSnapshot, err)
		}
		m.clusters = append(m.clusters, c)
	}
	return m, nil
}
