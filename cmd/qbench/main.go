// Command qbench regenerates every table and figure of the Qcluster paper
// (Kim & Chung, SIGMOD 2003) on the synthetic reproduction substrate.
//
// Usage:
//
//	qbench -exp all
//	qbench -exp fig10,fig12 -queries 100 -cats 100 -percat 100
//	qbench -exp table2 -pairs 100
//	qbench -data snapshot.gob -exp fig8   # reuse a cmd/qgen snapshot
//
// Experiment ids: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16 fig17 fig18 fig19 table2 table3 (or "all"), plus the
// companions fig10c fig12c fig10v fig12v ablation convergence. Serving and
// performance measurements are not here: bench/ is the repo's one benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/imagegen"
	"repro/internal/rf"
	"repro/internal/synth"
)

type config struct {
	exp     string
	data    string
	cats    int
	perCat  int
	size    int
	bimodal float64
	queries int
	iters   int
	k       int
	pairs   int
	trials  int
	seed    int64
}

// registerFlags declares the paper-protocol flags on flag.CommandLine.
func registerFlags(cfg *config) {
	flag.StringVar(&cfg.exp, "exp", "all", "comma-separated experiment ids, or 'all'")
	flag.StringVar(&cfg.data, "data", "", "dataset snapshot from cmd/qgen (optional; built on the fly otherwise)")
	flag.IntVar(&cfg.cats, "cats", 30, "categories in the generated collection")
	flag.IntVar(&cfg.perCat, "percat", 100, "images per category (paper: ~100)")
	flag.IntVar(&cfg.size, "size", 32, "image side length in pixels")
	flag.Float64Var(&cfg.bimodal, "bimodal", 0.3, "fraction of bimodal categories")
	flag.IntVar(&cfg.queries, "queries", 100, "random initial queries to average (paper: 100)")
	flag.IntVar(&cfg.iters, "iters", 5, "feedback iterations (paper: 5)")
	flag.IntVar(&cfg.k, "k", 100, "k-NN result size (paper: 100)")
	flag.IntVar(&cfg.pairs, "pairs", 100, "cluster pairs for tables 2-3 (paper: 100)")
	flag.IntVar(&cfg.trials, "trials", 10, "trials for classification error rates")
	flag.Int64Var(&cfg.seed, "seed", 2003, "master random seed")
}

func main() {
	var cfg config
	registerFlags(&cfg)
	flag.Parse()

	ids := expandExperiments(cfg.exp)
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected")
		os.Exit(2)
	}
	runner := newRunner(cfg)
	for _, id := range ids {
		fn, ok := runner.experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; registered: %s\n",
				id, strings.Join(runner.ids(), " "))
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", id)
		fn()
		fmt.Println()
	}
}

func expandExperiments(s string) []string {
	if s == "all" {
		return []string{
			"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
			"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
			"fig18", "fig19", "table2", "table3",
		}
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

type runner struct {
	cfg         config
	ds          *dataset.Dataset
	experiments map[string]func()
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg}
	r.experiments = map[string]func(){
		"fig5":   r.fig5,
		"fig6":   r.fig6,
		"fig7":   r.fig7,
		"fig8":   func() { r.prCurves(dataset.ColorMoments, "Fig. 8") },
		"fig9":   func() { r.prCurves(dataset.CooccurrenceTexture, "Fig. 9") },
		"fig10":  func() { r.compare(dataset.ColorMoments, "Fig. 10", "recall") },
		"fig11":  func() { r.compare(dataset.CooccurrenceTexture, "Fig. 11", "recall") },
		"fig12":  func() { r.compare(dataset.ColorMoments, "Fig. 12", "precision") },
		"fig13":  func() { r.compare(dataset.CooccurrenceTexture, "Fig. 13", "precision") },
		"fig14":  func() { r.classification(synth.Spherical, cluster.FullInverse, "Fig. 14") },
		"fig15":  func() { r.classification(synth.Elliptical, cluster.FullInverse, "Fig. 15") },
		"fig16":  func() { r.classification(synth.Spherical, cluster.Diagonal, "Fig. 16") },
		"fig17":  func() { r.classification(synth.Elliptical, cluster.Diagonal, "Fig. 17") },
		"fig18":  func() { r.qq(cluster.FullInverse, "Fig. 18") },
		"fig19":  func() { r.qq(cluster.Diagonal, "Fig. 19") },
		"table2": func() { r.t2Table(true, "Table 2") },
		"table3": func() { r.t2Table(false, "Table 3") },
		// Controlled-geometry companions to Figs. 10/12: the same
		// three-approach comparison on the vector world, whose complex
		// categories are disjoint tight modes with clutter inside their
		// hull — the paper's Example 1 / Figure 4 situation by
		// construction.
		// Combined-feature (color+texture) companions — an extension
		// beyond the paper, which evaluates each feature separately.
		"fig10c": func() { r.compare(dataset.Combined, "Fig. 10 (combined feature)", "recall") },
		"fig12c": func() { r.compare(dataset.Combined, "Fig. 12 (combined feature)", "precision") },
		"fig10v": func() { r.compareVec("Fig. 10 (vector world)", "recall") },
		"fig12v": func() { r.compareVec("Fig. 12 (vector world)", "precision") },
		// Ablation study: each small-sample correction removed in turn
		// (DESIGN.md "Implementation notes"), on the complex-query
		// vector-world workload.
		"ablation": r.ablation,
		// Convergence study (the paper's second experimental goal):
		// per-iteration recall gain, result churn and query-model drift.
		"convergence": r.convergence,
	}
	return r
}

// ids returns the registered experiment ids, sorted.
func (r *runner) ids() []string {
	out := make([]string, 0, len(r.experiments))
	for id := range r.experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// dataset lazily builds or loads the image collection.
func (r *runner) dataset() *dataset.Dataset {
	if r.ds != nil {
		return r.ds
	}
	if r.cfg.data != "" {
		ds, err := dataset.LoadFile(r.cfg.data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", r.cfg.data, err)
			os.Exit(1)
		}
		r.ds = ds
		return ds
	}
	fmt.Fprintf(os.Stderr, "building collection: %d categories x %d images (%dpx)...\n",
		r.cfg.cats, r.cfg.perCat, r.cfg.size)
	ds, err := dataset.Build(dataset.Config{
		Collection: imagegen.CollectionConfig{
			Seed:              r.cfg.seed,
			NumCategories:     r.cfg.cats,
			ImagesPerCategory: r.cfg.perCat,
			ImageSize:         r.cfg.size,
			BimodalFrac:       r.cfg.bimodal,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building dataset: %v\n", err)
		os.Exit(1)
	}
	r.ds = ds
	return ds
}

func (r *runner) retrievalConfig(f dataset.Feature) eval.RetrievalConfig {
	return eval.RetrievalConfig{
		DS:      r.dataset(),
		Feature: f,
		// Iterations and scale from flags.
		NumQueries: r.cfg.queries,
		Iterations: r.cfg.iters,
		K:          r.cfg.k,
		Seed:       r.cfg.seed,
		UseIndex:   true,
	}
}

func (r *runner) fig5() {
	res := eval.RunExample3(r.cfg.seed)
	fmt.Print(eval.RenderExample3(res))
}

func (r *runner) fig6() {
	cfg := r.retrievalConfig(dataset.ColorMoments)
	series := []eval.EngineSeries{
		eval.RunRetrieval(cfg, engines()["qcluster-diag"]),
		eval.RunRetrieval(cfg, engines()["qcluster-inv"]),
	}
	series[0].Name = "diagonal"
	series[1].Name = "inverse"
	fmt.Print(eval.RenderSeriesTable(
		"Fig. 6: CPU time per iteration, inverse vs diagonal scheme (color moments)",
		"mean ms per retrieval", series,
		func(s eval.EngineSeries) []float64 { return s.CPUMillis }))
}

func (r *runner) fig7() {
	cfg := r.retrievalConfig(dataset.ColorMoments)
	cached := cfg
	cached.UseRefinementCache = true
	series := []eval.EngineSeries{
		eval.RunRetrieval(cached, engines()["qcluster-diag"]),
		eval.RunRetrieval(cfg, engines()["qpm"]),
		eval.RunRetrieval(cfg, engines()["qex"]),
		eval.RunRetrieval(cfg, engines()["falcon"]),
	}
	series[0].Name = "Qcluster(cached)"
	fmt.Print(eval.RenderSeriesTable(
		"Fig. 7: execution cost per iteration (index nodes visited)",
		"mean nodes visited", series,
		func(s eval.EngineSeries) []float64 { return s.NodesVisited }))
	fmt.Println()
	fmt.Print(eval.RenderSeriesTable(
		"Fig. 7 (companion): distance evaluations per iteration",
		"mean distance evals", series,
		func(s eval.EngineSeries) []float64 { return s.DistanceEvals }))
	fmt.Println()
	fmt.Print(eval.RenderSeriesTable(
		"Fig. 7 (companion): wall-clock execution cost per iteration",
		"mean ms per retrieval", series,
		func(s eval.EngineSeries) []float64 { return s.CPUMillis }))
}

func (r *runner) prCurves(f dataset.Feature, figure string) {
	cfg := r.retrievalConfig(f)
	s := eval.RunRetrieval(cfg, engines()["qcluster-diag"])
	scopes := []int{1, 10, 20, 40, 60, 80, 100}
	fmt.Print(eval.RenderPRCurves(
		fmt.Sprintf("%s: precision-recall per iteration, Qcluster (%s)", figure, f),
		s.Curves, scopes))
}

func (r *runner) compare(f dataset.Feature, figure, metric string) {
	cfg := r.retrievalConfig(f)
	series := []eval.EngineSeries{
		eval.RunRetrieval(cfg, engines()["qcluster-diag"]),
		eval.RunRetrieval(cfg, engines()["qpm"]),
		eval.RunRetrieval(cfg, engines()["qex"]),
	}
	pick := func(s eval.EngineSeries) []float64 { return s.Recall }
	if metric == "precision" {
		pick = func(s eval.EngineSeries) []float64 { return s.Precision }
	}
	fmt.Print(eval.RenderSeriesTable(
		fmt.Sprintf("%s: %s per iteration, three approaches (%s)", figure, metric, f),
		metric, series, pick))
	r.printGains(series, pick, metric)
	// Paired significance of the headline comparison on the same queries.
	for _, baseline := range []string{"qpm", "qex"} {
		p := eval.RunPairedImage(cfg, engines()["qcluster-diag"], engines()[baseline])
		fmt.Printf("paired t-test %s vs %s over %d queries: Δrecall=%+.4f, t=%.2f, p=%.3f\n",
			p.NameA, p.NameB, p.Queries, p.MeanDiff, p.TStat, p.PValue)
	}
	// Difficulty split: the paper's thesis concerns the complex column.
	for _, id := range []string{"qcluster-diag", "qpm", "qex"} {
		b := eval.RunModalityImage(cfg, engines()[id])
		fmt.Printf("%-9s final recall — simple categories: %.3f (%d queries), complex: %.3f (%d queries)\n",
			b.Name, b.SimpleRecall, b.SimpleQueries, b.ComplexRecall, b.ComplexQueries)
	}
}

// printGains reports the final-iteration relative improvement of Qcluster
// over each baseline — the paper's headline numbers (+22%/+20% vs QEX,
// +34%/+33% vs QPM).
func (r *runner) printGains(series []eval.EngineSeries, pick func(eval.EngineSeries) []float64, metric string) {
	last := len(pick(series[0])) - 1
	q := pick(series[0])[last]
	for _, s := range series[1:] {
		b := pick(s)[last]
		if b > 0 {
			fmt.Printf("final-iteration %s gain of %s over %s: %+.1f%%\n",
				metric, series[0].Name, s.Name, 100*(q-b)/b)
		}
	}
}

func (r *runner) compareVec(figure, metric string) {
	wcfg := eval.VectorWorldConfig{Seed: r.cfg.seed, NumCategories: 40, PerCategory: 60}
	world := eval.BuildVectorWorld(wcfg)
	cfg := eval.WorkloadConfig{
		NumQueries: r.cfg.queries,
		Iterations: r.cfg.iters,
		K:          100,
		Seed:       r.cfg.seed,
		UseIndex:   true,
		// Complex-query workload: queries drawn from multi-mode
		// categories only, feedback restricted to same-category images.
		RelatedScore: -1,
	}
	series := []eval.EngineSeries{
		eval.RunVectorRetrieval(cfg, world, wcfg, true, engines()["qcluster-diag"]),
		eval.RunVectorRetrieval(cfg, world, wcfg, true, engines()["qpm"]),
		eval.RunVectorRetrieval(cfg, world, wcfg, true, engines()["qex"]),
	}
	pick := func(s eval.EngineSeries) []float64 { return s.Recall }
	if metric == "precision" {
		pick = func(s eval.EngineSeries) []float64 { return s.Precision }
	}
	fmt.Print(eval.RenderSeriesTable(
		fmt.Sprintf("%s: %s per iteration, complex queries on disjoint-mode categories", figure, metric),
		metric, series, pick))
	r.printGains(series, pick, metric)
}

func (r *runner) ablation() {
	wcfg := eval.VectorWorldConfig{Seed: r.cfg.seed, NumCategories: 40, PerCategory: 60}
	cfg := eval.WorkloadConfig{
		NumQueries:   r.cfg.queries,
		Iterations:   r.cfg.iters,
		K:            100,
		Seed:         r.cfg.seed,
		UseIndex:     true,
		RelatedScore: -1,
	}
	results := eval.RunAblations(cfg, wcfg)
	series := make([]eval.EngineSeries, len(results))
	for i, res := range results {
		series[i] = res.Series
	}
	fmt.Print(eval.RenderSeriesTable(
		"Ablation: recall per iteration with small-sample corrections removed",
		"recall", series,
		func(s eval.EngineSeries) []float64 { return s.Recall }))
	fmt.Println()
	fmt.Print(eval.RenderSeriesTable(
		"Ablation: mean query points per iteration",
		"query points", series,
		func(s eval.EngineSeries) []float64 { return s.QueryPoints }))

	// The same ablations on the image collection, where small relevant
	// sets and higher-variance category structure make the small-sample
	// corrections earn their keep.
	icfg := r.retrievalConfig(dataset.ColorMoments)
	ablations := []struct {
		name string
		abl  core.Ablations
	}{
		{"full", core.Ablations{}},
		{"raw-covariances", core.Ablations{RawCovariances: true}},
		{"plain-chi2-radius", core.Ablations{PlainChiSquareRadius: true}},
		{"no-overlap-merge", core.Ablations{NoOverlapMerge: true}},
	}
	iseries := make([]eval.EngineSeries, 0, len(ablations))
	for _, tc := range ablations {
		abl := tc.abl
		s := eval.RunRetrieval(icfg, func() rfEngine {
			return rf.NewQcluster(core.Options{Ablations: abl})
		})
		s.Name = tc.name
		iseries = append(iseries, s)
	}
	fmt.Println()
	fmt.Print(eval.RenderSeriesTable(
		"Ablation (image collection, color): recall per iteration",
		"recall", iseries,
		func(s eval.EngineSeries) []float64 { return s.Recall }))
}

func (r *runner) convergence() {
	res := eval.RunConvergence(r.retrievalConfig(dataset.ColorMoments))
	fmt.Println("Convergence of Qcluster (color moments): per-iteration deltas")
	fmt.Printf("%-10s %12s %12s %12s\n", "iteration", "recall-gain", "result-churn", "model-drift")
	for i := 1; i < len(res.RecallGain); i++ {
		fmt.Printf("%-10d %12.4f %12.4f %12.4f\n",
			i, res.RecallGain[i], res.ResultChurn[i], res.ModelDrift[i])
	}
	fmt.Println("fast convergence = large first-iteration gain, vanishing tail")
}

func (r *runner) classification(shape synth.Shape, scheme cluster.Scheme, figure string) {
	res := eval.RunClassification(eval.ClassificationConfig{
		Shape:  shape,
		Scheme: scheme,
		Trials: r.cfg.trials,
		Seed:   r.cfg.seed,
	})
	fmt.Print(eval.RenderClassification(
		fmt.Sprintf("%s: classification error rate, %s data, %s matrix", figure, shape, scheme),
		res))
}

func (r *runner) qq(scheme cluster.Scheme, figure string) {
	pts, threshold := eval.RunQQ(scheme, r.cfg.pairs, 12, r.cfg.seed)
	step := len(pts) / 25
	fmt.Print(eval.RenderQQ(
		fmt.Sprintf("%s: Q-Q plot of T² vs critical distance, %s matrix (dim 12)", figure, scheme),
		pts, step))
	// Summary: decision accuracy at the actual critical value.
	var sameOK, same, diffOK, diff int
	for _, p := range pts {
		if p.SameMean {
			same++
			if p.T2 <= threshold {
				sameOK++
			}
		} else {
			diff++
			if p.T2 > threshold {
				diffOK++
			}
		}
	}
	fmt.Printf("decision at F(0.95) = %.2f: same-mean merged %d/%d; different-mean separated %d/%d\n",
		threshold, sameOK, same, diffOK, diff)
}

func (r *runner) t2Table(sameMean bool, name string) {
	for _, scheme := range []cluster.Scheme{cluster.FullInverse, cluster.Diagonal} {
		rows := eval.RunT2(eval.T2Config{
			SameMean: sameMean,
			Scheme:   scheme,
			Pairs:    r.cfg.pairs,
			Seed:     r.cfg.seed,
		})
		label := "same means"
		if !sameMean {
			label = "different means"
		}
		fmt.Print(eval.RenderT2Table(
			fmt.Sprintf("%s: T² with %s matrix, %s", name, scheme, label), rows))
		fmt.Println()
	}
}

// engines returns the engine factories by id. Declared as a function so
// each call yields fresh closures.
func engines() map[string]func() rfEngine {
	return engineFactories
}
