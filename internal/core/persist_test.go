package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// savedModel returns the serialized bytes of a non-trivial model.
func savedModel(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := New(Options{Alpha: 0.01, MaxClusters: 3})
	m.Feedback(append(blob(rng, 12, 0, 0, 0), blob(rng, 12, 9, 9, 100)...))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadTypedErrorOnTruncation(t *testing.T) {
	img := savedModel(t)
	// Every proper prefix must fail with the typed sentinel — never a
	// panic, never a silently partial model.
	for _, cut := range []int{0, 1, 4, 5, 12, 13, len(img) / 2, len(img) - 1} {
		if _, err := Load(bytes.NewReader(img[:cut])); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("prefix of %d bytes: %v, want ErrCorruptSnapshot", cut, err)
		}
	}
}

func TestLoadTypedErrorOnBitFlips(t *testing.T) {
	img := savedModel(t)
	// The checksum makes any payload flip detectable; header flips hit
	// the magic, version, length or CRC checks. Either way the typed
	// error surfaces and the original image still loads.
	for pos := 0; pos < len(img); pos += 7 {
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0x20
		m, err := Load(bytes.NewReader(mut))
		if err == nil {
			// A flip in the magic demotes the stream to the legacy
			// headerless path, where gob may coincidentally parse; the
			// framed path itself can never miss a flip. Only tolerate
			// survivors in the magic bytes.
			if pos >= 4 {
				t.Fatalf("flip at %d of %d loaded a model with %d clusters", pos, len(img), m.NumClusters())
			}
			continue
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("flip at %d: %v, want ErrCorruptSnapshot", pos, err)
		}
	}
	if _, err := Load(bytes.NewReader(img)); err != nil {
		t.Fatalf("pristine image failed after mutations: %v", err)
	}
}

func TestLoadRejectsOversizedLengthClaim(t *testing.T) {
	img := savedModel(t)
	mut := append([]byte(nil), img...)
	// Smash the u32 length field (bytes 5..9) to ~4 GiB.
	mut[5], mut[6], mut[7], mut[8] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("4GiB length claim: %v, want ErrCorruptSnapshot", err)
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	img := savedModel(t)
	mut := append([]byte(nil), img...)
	mut[4] = 99
	if _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("version 99: %v, want ErrCorruptSnapshot", err)
	}
}

func TestLoadLegacyHeaderlessSnapshot(t *testing.T) {
	// Files written before the framing existed are raw gob; Load must
	// still accept them. Reconstruct one by stripping the header.
	img := savedModel(t)
	legacy := img[13:]
	m, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if m.NumClusters() == 0 {
		t.Fatal("legacy snapshot loaded empty")
	}
}

// reencoded saves a small model, rebuilds its snapshot by hand via
// Save's layout, applies mutate and frames the result: decoding through
// the public path is impossible for a damaged struct.
func reencoded(t *testing.T, mutate func(*modelSnapshot)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := New(Options{Alpha: 0.01, MaxClusters: 3})
	m.Feedback(blob(rng, 12, 0, 0, 0))
	snap := modelSnapshot{Options: m.opt, Rounds: m.rounds}
	for id := range m.seen {
		snap.SeenIDs = append(snap.SeenIDs, id)
	}
	for _, c := range m.clusters {
		cs := clusterSnapshot{Mean: c.Mean, Scatter: c.Scatter, Weight: c.Weight}
		for _, p := range c.Points {
			cs.IDs = append(cs.IDs, p.ID)
			cs.Vecs = append(cs.Vecs, p.Vec)
			cs.Scores = append(cs.Scores, p.Score)
		}
		snap.Clusters = append(snap.Clusters, cs)
	}
	mutate(&snap)
	var payload bytes.Buffer
	if err := writeFramedSnapshot(&payload, &snap); err != nil {
		t.Fatal(err)
	}
	return payload.Bytes()
}

func TestLoadRejectsSemanticDamage(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*modelSnapshot)
	}{
		{"negative rounds", func(s *modelSnapshot) { s.Rounds = -1 }},
		{"array disagreement", func(s *modelSnapshot) { s.Clusters[0].Scores = s.Clusters[0].Scores[:1] }},
		{"non-positive score", func(s *modelSnapshot) { s.Clusters[0].Scores[0] = 0 }},
		{"point dim mismatch", func(s *modelSnapshot) { s.Clusters[0].Vecs[1] = linalg.Vector{1} }},
		{"missing scatter", func(s *modelSnapshot) { s.Clusters[0].Scatter = nil }},
		// Options no model can run with: an unknown scheme would load and
		// then fail its next Feedback inside the merge stage, and an α
		// outside [0, 1) would silently disable the merge test or
		// collapse every cluster.
		{"unknown scheme", func(s *modelSnapshot) { s.Options.Scheme = cluster.Scheme(7) }},
		{"alpha one", func(s *modelSnapshot) { s.Options.Alpha = 1 }},
		{"alpha above one", func(s *modelSnapshot) { s.Options.Alpha = 1.5 }},
		{"negative alpha", func(s *modelSnapshot) { s.Options.Alpha = -0.5 }},
		{"NaN alpha", func(s *modelSnapshot) { s.Options.Alpha = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(reencoded(t, tc.mutate))); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("%v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// legacyOptions is core.Options as builds before the clustering knobs and
// two of the three ablation switches were deleted wrote it; gob matches
// fields by name, so these stand in for that build's types.
type legacyOptions struct {
	Scheme           cluster.Scheme
	Alpha            float64
	MaxClusters      int
	InitialLinkage   int
	InitialGapFactor float64
	Ablations        struct{ RawCovariances, PlainChiSquareRadius, NoOverlapMerge bool }
}

type legacySnapshot struct {
	Options  legacyOptions
	Clusters []clusterSnapshot
	SeenIDs  []int
	Rounds   int
}

// A query snapshot written before the option fields were deleted still
// loads: gob skips the fields the destination no longer has, and the
// surviving options and the clusters come back as saved.
func TestLoadSnapshotWithDeletedOptionFields(t *testing.T) {
	var snap modelSnapshot
	want, err := Load(bytes.NewReader(reencoded(t, func(s *modelSnapshot) {
		s.Options.Scheme = cluster.FullInverse
		s.Options.Ablations.RawCovariances = true
		snap = *s
	})))
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacySnapshot{Clusters: snap.Clusters, SeenIDs: snap.SeenIDs, Rounds: snap.Rounds}
	legacy.Options = legacyOptions{
		Scheme: snap.Options.Scheme, Alpha: snap.Options.Alpha, MaxClusters: snap.Options.MaxClusters,
		InitialLinkage: 3, InitialGapFactor: 2,
	}
	legacy.Options.Ablations.RawCovariances = true
	legacy.Options.Ablations.PlainChiSquareRadius = true
	legacy.Options.Ablations.NoOverlapMerge = true

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var hdr [13]byte
	copy(hdr[:4], modelMagic[:])
	hdr[4] = modelFormatVersion
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload.Bytes(), persistCastagnoli))
	got, err := Load(io.MultiReader(bytes.NewReader(hdr[:]), &payload))
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if got.Options() != want.Options() || got.Rounds() != want.Rounds() {
		t.Fatalf("options %+v rounds %d, want %+v rounds %d", got.Options(), got.Rounds(), want.Options(), want.Rounds())
	}
	if err := sameClusters(got.Clusters(), want.Clusters()); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoad drives Load with arbitrary bytes and with mutations of a
// valid snapshot: it must never panic, and whatever it accepts must
// satisfy the model invariants (checked by a save/reload round trip).
func FuzzLoad(f *testing.F) {
	valid := savedModel(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[13:]) // legacy headerless form
	f.Add([]byte{})
	f.Add([]byte("QCMS"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatal("non-nil model returned with error")
			}
			return
		}
		// Accepted input: the model must be internally consistent enough
		// to save and reload.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("accepted model cannot re-save: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-saved model cannot reload: %v", err)
		}
		if back.NumClusters() != m.NumClusters() {
			t.Fatalf("round trip changed cluster count %d -> %d", m.NumClusters(), back.NumClusters())
		}
	})
}
