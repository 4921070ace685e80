package imagegen

import (
	"fmt"
	"image"
)

// Collection is a deterministic labelled image collection: category
// recipes plus the assignment of image ids to categories. Images are
// rendered on demand from (collection seed, image id), so the collection
// itself is tiny regardless of image count.
type Collection struct {
	Seed       int64
	Categories []Category
	ImageSize  int
	labels     []int // image id -> category id
}

// CollectionConfig sizes a collection.
type CollectionConfig struct {
	Seed              int64
	NumCategories     int
	ImagesPerCategory int // the paper: ~100
	ImageSize         int // square side in pixels (default 48)
	Themes            int // supercategory count (default: built-in themes)
	BimodalFrac       float64
}

func (c CollectionConfig) withDefaults() CollectionConfig {
	if c.NumCategories <= 0 {
		c.NumCategories = 30
	}
	if c.ImagesPerCategory <= 0 {
		c.ImagesPerCategory = 100
	}
	if c.ImageSize <= 0 {
		c.ImageSize = 48
	}
	return c
}

// NewCollection builds the category recipes and the image-id layout.
func NewCollection(cfg CollectionConfig) *Collection {
	cfg = cfg.withDefaults()
	cats := GenerateCategories(cfg.Seed, cfg.NumCategories, cfg.Themes, cfg.BimodalFrac)
	n := cfg.NumCategories * cfg.ImagesPerCategory
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i / cfg.ImagesPerCategory
	}
	return &Collection{
		Seed:       cfg.Seed,
		Categories: cats,
		ImageSize:  cfg.ImageSize,
		labels:     labels,
	}
}

// NumImages returns the collection size.
func (c *Collection) NumImages() int { return len(c.labels) }

// Label returns the category id of image id.
func (c *Collection) Label(id int) int { return c.labels[id] }

// Theme returns the theme (supercategory) of image id.
func (c *Collection) Theme(id int) int { return c.Categories[c.labels[id]].Theme }

// Labels returns the full label slice (aliased; treat as read-only).
func (c *Collection) Labels() []int { return c.labels }

// imageSeed derives the per-image render seed.
func (c *Collection) imageSeed(id int) int64 {
	return c.Seed*1_000_003 + int64(id)*2_654_435_761
}

// Render draws image id.
func (c *Collection) Render(id int) *image.RGBA {
	if id < 0 || id >= len(c.labels) {
		panic(fmt.Sprintf("imagegen: image id %d out of range", id))
	}
	cat := c.Categories[c.labels[id]]
	return cat.Render(c.imageSeed(id), c.ImageSize)
}

// VariantOf reports which variant image id renders (0 for unimodal
// categories).
func (c *Collection) VariantOf(id int) int {
	cat := c.Categories[c.labels[id]]
	return cat.VariantFor(c.imageSeed(id))
}
