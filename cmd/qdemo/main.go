// Command qdemo runs an interactive Qcluster retrieval session on a
// generated collection: it picks (or accepts) a query image, shows the
// top-k results with their ground-truth categories, lets you mark the
// relevant ones (or auto-marks with the oracle), and refines the query
// until you stop — Algorithm 1 on the terminal.
//
// Usage:
//
//	qdemo                      # small built-in collection, auto-oracle
//	qdemo -data corel.gob -q 1234 -k 20 -manual
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imagegen"
	"repro/internal/index"
	"repro/internal/rf"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset snapshot from cmd/qgen (optional)")
		query   = flag.Int("q", -1, "query image id (-1 = random)")
		k       = flag.Int("k", 15, "results per round")
		iters   = flag.Int("iters", 5, "feedback rounds")
		manual  = flag.Bool("manual", false, "type relevant ranks yourself instead of the oracle")
		saveTo  = flag.String("save", "", "write the final query model to this path")
		feature = flag.String("feature", "color", "feature space: color or texture")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	ds := loadOrBuild(*data, *seed)
	var vecs = ds.Vectors(dataset.ColorMoments)
	if *feature == "texture" {
		vecs = ds.Vectors(dataset.CooccurrenceTexture)
	}
	store, err := index.NewStore(vecs)
	if err != nil {
		fatal(err)
	}
	tree := index.NewHybridTree(store, index.TreeOptions{})
	searcher := index.NewRefinementSearcher(tree)

	labels := ds.Col.Labels()
	themes := make([]int, len(ds.Col.Categories))
	for i, c := range ds.Col.Categories {
		themes[i] = c.Theme
	}
	oracle := rf.NewOracle(labels, themes)

	rng := rand.New(rand.NewSource(*seed))
	qid := *query
	if qid < 0 || qid >= store.Len() {
		qid = rng.Intn(store.Len())
	}
	qcat := labels[qid]
	fmt.Printf("query image %d — category %q (%d images)\n",
		qid, ds.Col.Categories[qcat].Name, oracle.CategorySize(qcat))

	engine := rf.NewQcluster(core.Options{})
	engine.Init(store.Vector(qid))

	in := bufio.NewScanner(os.Stdin)
	for round := 0; round <= *iters; round++ {
		results, _ := searcher.KNN(engine.Metric(), *k)
		d := engine.Describe()
		hits := 0
		fmt.Printf("\n-- round %d (%d query points) --\n", round, max(1, len(d.Clusters)))
		for rank, r := range results {
			cat := labels[r.ID]
			mark := " "
			if cat == qcat {
				mark = "*"
				hits++
			}
			fmt.Printf("%2d %s img %5d  %-14s d=%.4f\n",
				rank+1, mark, r.ID, ds.Col.Categories[cat].Name, r.Dist)
		}
		fmt.Printf("precision %.2f, recall %.2f\n",
			float64(hits)/float64(len(results)),
			float64(hits)/float64(oracle.CategorySize(qcat)))
		if d.Rounds > 0 {
			fmt.Printf("   feedback round %d: %s\n", d.Rounds, placed(d.Round))
			for ci, c := range d.Clusters {
				fmt.Printf("   cluster %d: %d images, weight %.0f\n", ci, len(c.IDs), c.Weight)
			}
		}
		if round == *iters {
			break
		}

		ids := make([]int, len(results))
		for i, r := range results {
			ids[i] = r.ID
		}
		if *manual {
			fmt.Print("relevant ranks (e.g. 1 3 7; empty = stop): ")
			if !in.Scan() {
				break
			}
			line := strings.Fields(in.Text())
			if len(line) == 0 {
				break
			}
			var marked []int
			for _, tok := range line {
				if r, err := strconv.Atoi(tok); err == nil && r >= 1 && r <= len(ids) {
					marked = append(marked, ids[r-1])
				}
			}
			pts := oracle.Mark(qcat, marked, store.Vector)
			engine.Feedback(pts)
		} else {
			engine.Feedback(oracle.Mark(qcat, ids, store.Vector))
		}
	}
	if *saveTo != "" && engine.Model() != nil {
		f, err := os.Create(*saveTo)
		if err != nil {
			fatal(err)
		}
		if err := engine.Model().Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nquery model saved to %s\n", *saveTo)
	}
}

// placed says how a feedback round placed its marks (Algorithm 2) and
// merged clusters (Algorithm 3).
func placed(r core.Round) string {
	s := r.Initial + " start"
	if r.Initial == "" {
		s = fmt.Sprintf("%d marks classified", len(r.Decisions))
		for _, d := range r.Decisions {
			if d.New {
				s += fmt.Sprintf(", img %d seeded a cluster", d.PointID)
			}
		}
	}
	return fmt.Sprintf("%s; %d merges over %d pairs", s, len(r.Merge.Steps), r.Merge.PairsTested)
}

func loadOrBuild(path string, seed int64) *dataset.Dataset {
	if path != "" {
		ds, err := dataset.LoadFile(path)
		if err != nil {
			fatal(err)
		}
		return ds
	}
	fmt.Fprintln(os.Stderr, "building a small demo collection (use cmd/qgen for a big one)...")
	ds, err := dataset.Build(dataset.Config{
		Collection: imagegen.CollectionConfig{
			Seed: seed, NumCategories: 24, ImagesPerCategory: 40,
			ImageSize: 32, Themes: 6, BimodalFrac: 0.4,
		},
	})
	if err != nil {
		fatal(err)
	}
	return ds
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
