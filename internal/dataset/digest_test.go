package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/imagegen"
)

// smokeDigest is the SHA-256 of Save's bytes for the smoke-sized corel
// collection below, recorded before the feature kernels moved from
// image.Image to *image.RGBA. Every rendered pixel, feature component
// and PCA value feeds it, so any change to their bits fails the test.
const smokeDigest = "4d7edcbb378d4f714ffd76eb3245055e50b900db2c2d0d7dce7941164db05054"

// TestBuildSnapshotDigest builds the smoke-sized collection (10 × 30
// images at 32 pixels, the corel workload's -smoke shape) and compares
// the snapshot's digest with the recorded one. Go fuses x*y+z into one
// rounding on some architectures, so the digest holds only where it does
// not.
func TestBuildSnapshotDigest(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "loong64", "ppc64", "ppc64le", "riscv64", "s390x":
		t.Skipf("GOARCH %s fuses multiply-add; the digest was recorded without fusion", runtime.GOARCH)
	}
	cfg := imagegen.CollectionConfig{Seed: 2003, NumCategories: 10, ImagesPerCategory: 30, ImageSize: 32, BimodalFrac: 0.3}
	ds, err := Build(Config{Collection: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != smokeDigest {
		t.Fatalf("snapshot digest = %s, want %s", got, smokeDigest)
	}
}
