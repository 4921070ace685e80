package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/imagegen"
	"repro/internal/rf"
)

// corpusSeed seeds the stored collection of every workload. The corpus is
// part of the workload definition; --seed varies the request stream only,
// so two seeds time the same index and their numbers can be compared.
const corpusSeed = 2003

// k is the page size of every retrieval (the paper's top-100).
const k = 100

// feedbackRounds is the number of mark → refine iterations per session.
const feedbackRounds = 5

// ingestAfterRound is the results page after which the durable workload
// posts its vectors, and ingestBatch how many it posts.
const (
	ingestAfterRound = 2
	ingestBatch      = 4
	ingestJitter     = 0.02
)

// workload is one traffic mix: a stored collection, a qserve
// configuration and a session shape.
type workload struct {
	name string
	why  string

	// Exactly one of corel / mixture describes the collection.
	corel   *corelSpec
	mixture *mixtureSpec

	scheme  string // per-session covariance scheme sent on create
	shards  int    // qserve -shards (0 = flag omitted)
	durable bool   // qserve -data <dir>, and mid-session ingest
	// oneCPU runs qserve and its client pinned to one CPU. A corel session
	// is 13 serial sub-millisecond requests in which nothing runs in
	// parallel; given two CPUs the kernel wakes each side on the idle one,
	// and what that wake-up costs in a guest (an IPI and a halt exit) is
	// the host's doing: sessions took 1.5× as long and spread 2–4× as wide
	// between runs (README, "Measured noise"). The mixture workloads keep
	// every CPU, because parallel leaves and shard legs are their point.
	oneCPU bool

	// warmup sessions run before timing starts and are discarded. The
	// count is fixed, not timed, so the store state seen by measured
	// session i does not depend on the machine's speed.
	warmup int
	// quality is the fixed prefix of measured sessions the precision
	// and count metrics are taken over, so they do not move with the
	// number of sessions a time-boxed run completes.
	quality int
	// checkEvery selects the sessions replayed against the oracle.
	checkEvery int
	// maxSessions, when > 0, ends the measured phase after that many
	// sessions instead of at the deadline (smoke grid).
	maxSessions int
}

type corelSpec struct{ cats, perCat, size int }

type mixtureSpec struct{ cats, perCat, dim int }

// workloads is the benchmark's grid; BENCHMARK.json names the same four.
func workloads() []workload {
	corel := &corelSpec{cats: 300, perCat: 100, size: 32}
	mix := &mixtureSpec{cats: 1000, perCat: 64, dim: 16}
	return []workload{
		{
			name: "corel_session",
			why: "the paper's protocol at the paper's scale: 30k rendered images, real 3-d colour moments, diagonal scheme, one CPU; " +
				"a refined search is a small share of a request, so server/obs/HTTP/JSON dominate",
			corel: corel, scheme: "diagonal", oneCPU: true, warmup: 90, quality: 900, checkEvery: 50,
		},
		{
			name: "mix16_session",
			why: "search-bound: 64k 16-d vectors, 64 per cluster but k=100, so pruning is poor, full-inverse scheme; " +
				"index/distance/linalg/core do the work and parallel leaf workers engage",
			mixture: mix, scheme: "full_inverse", warmup: 10, quality: 120, checkEvery: 50,
		},
		{
			name: "mix16_sharded",
			why: "mix16_session data behind -shards 2: scatter-gather legs under one shared bound and a (dist,id) merge " +
				"replace parallel leaves; guards the shard.Session / setBackend path",
			mixture: mix, scheme: "full_inverse", shards: 2, warmup: 10, quality: 120, checkEvery: 50,
		},
		{
			name: "corel_durable_mixed",
			why: "writes beside reads: corel_session with -data, every session posts 4 vectors after round 2, so WAL fsync, " +
				"tree insert, re-splits and the epoch bump that drops the refinement cache land mid-session",
			corel: corel, scheme: "diagonal", durable: true, oneCPU: true, warmup: 70, quality: 600, checkEvery: 50,
		},
	}
}

// smokeWorkloads is the same grid shrunk to run in seconds: 300 images
// (1280 mixture vectors), 20 sessions, every session oracle-checked.
func smokeWorkloads() []workload {
	ws := workloads()
	for i := range ws {
		w := &ws[i]
		if w.corel != nil {
			w.corel = &corelSpec{cats: 10, perCat: 30, size: 32}
		} else {
			w.mixture = &mixtureSpec{cats: 20, perCat: 64, dim: 16}
		}
		w.warmup, w.quality, w.checkEvery, w.maxSessions = 1, 20, 1, 20
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// corpus is the stored collection as the harness knows it: the vectors
// qserve serves (bit-identical), their category labels and the
// category → theme map the relevance oracle judges with. On the durable
// workload it grows with every acknowledged ingest.
type corpus struct {
	vectors [][]float64
	labels  []int
	themes  []int
	catSize []int // items per category, ingests included
	// oracle is the simulated user over labels and themes; it is rebuilt
	// whenever labels grows, because rf.Oracle keeps the slice it was given.
	oracle *rf.Oracle
	perCat int
	base   int // len(vectors) before any ingest

	// serverArgs tells qserve how to load the same collection.
	serverArgs []string
	// buildSeconds is the dataset.Build time (0 for the mixture, which
	// qserve generates itself).
	buildSeconds float64
}

// buildCorpus makes the workload's collection. For corel it renders and
// featurizes the images and writes the qgen-format snapshot qserve loads;
// for the mixture it regenerates qserve's own seeded generator.
func buildCorpus(w workload, dir string) (*corpus, error) {
	if w.mixture != nil {
		return mixtureCorpus(*w.mixture), nil
	}
	cfg := corelConfig(*w.corel)
	start := time.Now()
	ds, err := dataset.Build(dataset.Config{Collection: cfg})
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	path := filepath.Join(dir, "corel.gob")
	if err := ds.SaveFile(path, cfg); err != nil {
		return nil, fmt.Errorf("writing dataset snapshot: %w", err)
	}
	c := &corpus{
		perCat:       w.corel.perCat,
		serverArgs:   []string{"-dataset", path},
		buildSeconds: time.Since(start).Seconds(),
	}
	for _, v := range ds.Vectors(dataset.ColorMoments) {
		c.vectors = append(c.vectors, v)
	}
	c.labels = append(c.labels, ds.Col.Labels()...)
	for _, cat := range ds.Col.Categories {
		c.themes = append(c.themes, cat.Theme)
	}
	c.finishBase()
	return c, nil
}

// corelConfig is the image collection of the corel workloads: qgen's
// defaults (0.3 of the categories multi-variant) at the spec's size.
func corelConfig(spec corelSpec) imagegen.CollectionConfig {
	return imagegen.CollectionConfig{
		Seed:              corpusSeed,
		NumCategories:     spec.cats,
		ImagesPerCategory: spec.perCat,
		ImageSize:         spec.size,
		BimodalFrac:       0.3,
	}
}

// mixtureCorpus re-implements cmd/qserve's loadVectors mixture (same
// seed, same draw order) so the harness holds the vectors qserve serves.
// Every cluster is its own category and its own theme.
func mixtureCorpus(m mixtureSpec) *corpus {
	rng := rand.New(rand.NewSource(corpusSeed))
	c := &corpus{
		perCat: m.perCat,
		serverArgs: []string{
			"-cats", strconv.Itoa(m.cats), "-percat", strconv.Itoa(m.perCat),
			"-dim", strconv.Itoa(m.dim), "-seed", strconv.Itoa(corpusSeed),
		},
	}
	for cat := 0; cat < m.cats; cat++ {
		center := make([]float64, m.dim)
		for d := range center {
			center[d] = rng.NormFloat64() * 5
		}
		for i := 0; i < m.perCat; i++ {
			v := make([]float64, m.dim)
			for d := range v {
				v[d] = center[d] + rng.NormFloat64()
			}
			c.vectors = append(c.vectors, v)
			c.labels = append(c.labels, cat)
		}
		c.themes = append(c.themes, cat)
	}
	c.finishBase()
	return c
}

func (c *corpus) finishBase() {
	c.base = len(c.vectors)
	c.catSize = make([]int, len(c.themes))
	for _, l := range c.labels {
		c.catSize[l]++
	}
	c.oracle = rf.NewOracle(c.labels, c.themes)
}

// reset forgets every ingest: a pass that boots a fresh store starts from
// the base collection again.
func (c *corpus) reset() {
	c.vectors, c.labels = c.vectors[:c.base], c.labels[:c.base]
	c.finishBase()
}

// append records an acknowledged ingest so the oracle sees the store the
// server now serves.
func (c *corpus) append(vecs [][]float64, cat int) {
	for _, v := range vecs {
		c.vectors = append(c.vectors, v)
		c.labels = append(c.labels, cat)
	}
	c.catSize[cat] += len(vecs)
	c.oracle = rf.NewOracle(c.labels, c.themes)
}

// stream generates the seeded request inputs in session order: the query
// image of session i and, on the durable workload, the vectors it
// ingests. It draws from the base collection only, so the inputs are a
// pure function of (seed, i).
type stream struct {
	rng    *rand.Rand
	c      *corpus
	cats   int
	order  []int // category permutation of the current cycle
	cursor int
}

func newStream(seed int64, c *corpus) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), c: c, cats: len(c.themes)}
}

// nextQuery returns the next query image. Categories are visited in
// seeded permutations, one full cycle after another, so every category
// is queried equally often and precision does not move with which
// categories a seed happens to favour.
func (s *stream) nextQuery() int {
	if s.cursor == len(s.order) {
		s.order = s.rng.Perm(s.cats)
		s.cursor = 0
	}
	cat := s.order[s.cursor]
	s.cursor++
	return cat*s.c.perCat + s.rng.Intn(s.c.perCat)
}

// nextIngest returns ingestBatch jittered copies of base images of cat.
func (s *stream) nextIngest(cat int) [][]float64 {
	out := make([][]float64, ingestBatch)
	for i := range out {
		src := s.c.vectors[cat*s.c.perCat+s.rng.Intn(s.c.perCat)]
		v := make([]float64, len(src))
		for d := range v {
			v[d] = src[d] + s.rng.NormFloat64()*ingestJitter
		}
		out[i] = v
	}
	return out
}
