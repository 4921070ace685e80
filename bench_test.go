// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5). Each benchmark runs the corresponding
// experiment at a laptop-scale workload and attaches the headline result
// metrics via b.ReportMetric, so `go test -bench=. -benchmem` both times
// the experiment and reports the reproduced numbers. cmd/qbench runs the
// same experiments at configurable (paper) scale with full output.
package qcluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/eval"
	"repro/internal/imagegen"
	"repro/internal/index"
	"repro/internal/linalg"
	"repro/internal/rf"
	"repro/internal/synth"
)

// benchDataset is the shared image collection for the retrieval
// benchmarks (Figs. 6-13): built once, reused by every benchmark.
var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := dataset.Build(dataset.Config{
			Collection: imagegen.CollectionConfig{
				Seed: 2003, NumCategories: 24, ImagesPerCategory: 50,
				ImageSize: 24, Themes: 6, BimodalFrac: 0.4,
			},
		})
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	return benchDS
}

func benchRetrievalConfig(ds *dataset.Dataset, f dataset.Feature) eval.RetrievalConfig {
	return eval.RetrievalConfig{
		DS: ds, Feature: f,
		NumQueries: 10, Iterations: 5, K: 50, Seed: 7, UseIndex: true,
	}
}

// BenchmarkFig5DisjunctiveCube reproduces Example 3 / Fig. 5: the
// aggregate disjunctive distance over 10,000 uniform cube points.
// Reported: points within 1.0 of either corner and the share retrieved
// around each corner.
func BenchmarkFig5DisjunctiveCube(b *testing.B) {
	var res eval.Example3Result
	for i := 0; i < b.N; i++ {
		res = eval.RunExample3(42)
	}
	b.ReportMetric(float64(res.WithinRadius), "points-within")
	b.ReportMetric(float64(res.PerCenter[0]), "corner-lo")
	b.ReportMetric(float64(res.PerCenter[1]), "corner-hi")
}

// BenchmarkFig6Scheme times the full Qcluster retrieval workload under
// the two covariance schemes — the inverse-vs-diagonal CPU comparison of
// Fig. 6. The benchmark time itself is the figure's y-axis.
func BenchmarkFig6Scheme(b *testing.B) {
	ds := benchDataset(b)
	for _, scheme := range []cluster.Scheme{cluster.Diagonal, cluster.FullInverse} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := benchRetrievalConfig(ds, dataset.ColorMoments)
			var last eval.EngineSeries
			for i := 0; i < b.N; i++ {
				last = eval.RunRetrieval(cfg, func() rf.Engine {
					return rf.NewQcluster(core.Options{Scheme: scheme})
				})
			}
			b.ReportMetric(last.Recall[len(last.Recall)-1], "recall@5")
			b.ReportMetric(mean(last.CPUMillis), "ms/retrieval")
		})
	}
}

// BenchmarkFig7ExecutionCost compares per-iteration retrieval work across
// the approaches: Qcluster with the multipoint refinement cache, QPM, QEX
// and FALCON. Reported: mean index nodes visited and distance
// evaluations per retrieval (the paper's execution-cost axis).
func BenchmarkFig7ExecutionCost(b *testing.B) {
	ds := benchDataset(b)
	cases := []struct {
		name   string
		cached bool
		mk     func() rf.Engine
	}{
		{"Qcluster-cached", true, func() rf.Engine { return rf.NewQcluster(core.Options{}) }},
		{"Qcluster-cold", false, func() rf.Engine { return rf.NewQcluster(core.Options{}) }},
		{"QPM", false, func() rf.Engine { return rf.NewQPM() }},
		{"QEX", false, func() rf.Engine { return rf.NewQEX(5) }},
		{"FALCON", false, func() rf.Engine { return rf.NewFalcon(-5) }},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchRetrievalConfig(ds, dataset.ColorMoments)
			cfg.UseRefinementCache = tc.cached
			var last eval.EngineSeries
			for i := 0; i < b.N; i++ {
				last = eval.RunRetrieval(cfg, tc.mk)
			}
			b.ReportMetric(mean(last.NodesVisited), "nodes/retrieval")
			b.ReportMetric(mean(last.DistanceEvals), "evals/retrieval")
		})
	}
}

// BenchmarkFig8PRColor and BenchmarkFig9PRTexture regenerate the
// per-iteration precision-recall curves for Qcluster on each feature.
// Reported: precision and recall at full scope for the initial query and
// the final iteration (the endpoints of the figures' first/last lines).
func BenchmarkFig8PRColor(b *testing.B)   { benchPR(b, dataset.ColorMoments) }
func BenchmarkFig9PRTexture(b *testing.B) { benchPR(b, dataset.CooccurrenceTexture) }

func benchPR(b *testing.B, f dataset.Feature) {
	ds := benchDataset(b)
	cfg := benchRetrievalConfig(ds, f)
	var last eval.EngineSeries
	for i := 0; i < b.N; i++ {
		last = eval.RunRetrieval(cfg, func() rf.Engine {
			return rf.NewQcluster(core.Options{})
		})
	}
	end := len(last.Recall) - 1
	b.ReportMetric(last.Recall[0], "recall@iter0")
	b.ReportMetric(last.Recall[end], "recall@final")
	b.ReportMetric(last.Precision[0], "prec@iter0")
	b.ReportMetric(last.Precision[end], "prec@final")
}

// BenchmarkFig10to13Compare regenerates the three-approach comparison
// (recall: Figs. 10-11; precision: Figs. 12-13) for both features.
// Reported: final-iteration recall and precision per engine.
func BenchmarkFig10to13Compare(b *testing.B) {
	ds := benchDataset(b)
	engines := []struct {
		name string
		mk   func() rf.Engine
	}{
		{"Qcluster", func() rf.Engine { return rf.NewQcluster(core.Options{}) }},
		{"QPM", func() rf.Engine { return rf.NewQPM() }},
		{"QEX", func() rf.Engine { return rf.NewQEX(5) }},
	}
	for _, f := range []dataset.Feature{dataset.ColorMoments, dataset.CooccurrenceTexture} {
		f := f
		for _, e := range engines {
			e := e
			b.Run(f.String()+"/"+e.name, func(b *testing.B) {
				cfg := benchRetrievalConfig(ds, f)
				var last eval.EngineSeries
				for i := 0; i < b.N; i++ {
					last = eval.RunRetrieval(cfg, e.mk)
				}
				end := len(last.Recall) - 1
				b.ReportMetric(last.Recall[end], "recall@final")
				b.ReportMetric(last.Precision[end], "prec@final")
			})
		}
	}
}

// BenchmarkFig14to17Classification regenerates the synthetic
// classification error-rate sweeps (3 Gaussian clusters in ℝ¹⁶, PCA to
// 12/9/6/3, inter-cluster distance 0.5-2.5) for every shape×scheme cell.
// Reported: error rate at the narrowest and widest separation (dim 12).
func BenchmarkFig14to17Classification(b *testing.B) {
	cases := []struct {
		name   string
		shape  synth.Shape
		scheme cluster.Scheme
	}{
		{"fig14-spherical-inverse", synth.Spherical, cluster.FullInverse},
		{"fig15-elliptical-inverse", synth.Elliptical, cluster.FullInverse},
		{"fig16-spherical-diagonal", synth.Spherical, cluster.Diagonal},
		{"fig17-elliptical-diagonal", synth.Elliptical, cluster.Diagonal},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res eval.ClassificationResult
			for i := 0; i < b.N; i++ {
				res = eval.RunClassification(eval.ClassificationConfig{
					Shape: tc.shape, Scheme: tc.scheme,
					PointsPerCluster: 30, Trials: 3, Seed: 11,
				})
			}
			last := len(res.Config.InterDists) - 1
			b.ReportMetric(res.Err[0][0], "err-dim12-near")
			b.ReportMetric(res.Err[0][last], "err-dim12-far")
			b.ReportMetric(res.Err[len(res.Err)-1][0], "err-dim3-near")
		})
	}
}

// BenchmarkFig18and19QQ regenerates the Q-Q studies: 100 cluster pairs
// (half same-mean, half different), T² against random-F critical
// distances, under each scheme. Reported: decision accuracy per
// population at the F(0.95) critical value.
func BenchmarkFig18and19QQ(b *testing.B) {
	for _, scheme := range []cluster.Scheme{cluster.FullInverse, cluster.Diagonal} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var pts []eval.QQPoint
			var threshold float64
			for i := 0; i < b.N; i++ {
				pts, threshold = eval.RunQQ(scheme, 100, 12, 23)
			}
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
			b.ReportMetric(float64(sameOK)/float64(same), "same-mean-merged")
			b.ReportMetric(float64(diffOK)/float64(diff), "diff-mean-separated")
		})
	}
}

// BenchmarkTable2 and BenchmarkTable3 regenerate the T² accuracy tables
// (100 pairs of size-30 clusters, dims 12/9/6/3). Reported: the dim-12
// and dim-3 rows' F-scaled average T² and error ratio.
func BenchmarkTable2(b *testing.B) { benchT2(b, true) }
func BenchmarkTable3(b *testing.B) { benchT2(b, false) }

func benchT2(b *testing.B, sameMean bool) {
	for _, scheme := range []cluster.Scheme{cluster.FullInverse, cluster.Diagonal} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var rows []eval.T2Row
			for i := 0; i < b.N; i++ {
				rows = eval.RunT2(eval.T2Config{
					SameMean: sameMean, Scheme: scheme, Pairs: 100, Seed: 17,
				})
			}
			b.ReportMetric(rows[0].AvgT2, "avgT2-dim12")
			b.ReportMetric(rows[len(rows)-1].AvgT2, "avgT2-dim3")
			b.ReportMetric(rows[0].ErrorRatio, "err%-dim12")
		})
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkIndexComparison times the two search substrates — linear
// scan and hybrid tree — on identical k-NN workloads over a
// 30,000-vector store (single-point and disjunctive queries). Reported:
// exact distance evaluations per query (the filtering power).
func BenchmarkIndexComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	const n, dim = 30000, 3
	store := mustStore(b, synth.Gaussian[linalg.Vector](rng, n, dim, 3))
	tree := index.NewHybridTree(store, index.TreeOptions{})
	scan := index.NewLinearScan(store)

	q1 := distance.NewQuadraticDiag(linalg.Vector{-2, -2, -2}, linalg.Vector{1, 1, 1})
	q2 := distance.NewQuadraticDiag(linalg.Vector{2, 2, 2}, linalg.Vector{1, 1, 1})
	metrics := map[string]distance.Metric{
		"euclidean":   &distance.Euclidean{Center: linalg.Vector{0.5, 0.5, 0.5}},
		"disjunctive": distance.NewDisjunctive([]*distance.Quadratic{q1, q2}, []float64{1, 1}),
	}
	searchers := []struct {
		name string
		s    index.Searcher
	}{
		{"scan", scan},
		{"hybridtree", tree},
	}
	for mName, m := range metrics {
		for _, sc := range searchers {
			m, sc := m, sc
			b.Run(mName+"/"+sc.name, func(b *testing.B) {
				var stats index.SearchStats
				for i := 0; i < b.N; i++ {
					_, stats = sc.s.KNN(m, 100)
				}
				b.ReportMetric(float64(stats.DistanceEvals), "exact-evals")
			})
		}
	}
}

// mustStore wraps vectors a benchmark generated, which are always valid.
func mustStore(b *testing.B, vecs []linalg.Vector) *index.Store {
	store, err := index.NewStore(vecs)
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// fullEq5 is the metric a full-scheme session searches with over cs:
// Eq. 5 with each covariance shrunk toward the pooled one, prior dim+1.
func fullEq5(cs ...*cluster.Cluster) distance.Metric {
	m, _ := distance.FromClustersShrunkInfo(cs, cluster.FullInverse, float64(cs[0].Dim()+1))
	return m
}

// The mix16 cells are shaped like the benchmark's mix16 workloads: 1000
// clusters of 64 16-d vectors, cluster c at ids [64c, 64c+64).
const mix16Cats, mix16PerCat, mix16Seed = 1000, 64, 16

// BenchmarkKNN times the k-NN hot path itself on one worker and on
// GOMAXPROCS: Euclidean queries over random collections on a dim ∈
// {8, 32} × N ∈ {10k, 100k} grid, plus a cell shaped like the benchmark's
// mix16 workloads (64k 16-d vectors in 64-point clusters, full-inverse
// queries, k = 100). Each cell reports the share of its searches that
// finished as a sweep beside exact-evals per search, so the regime
// boundary shows in one run. CI runs this with -benchtime=1x as a smoke
// test.
func BenchmarkKNN(b *testing.B) {
	const k = 100
	type cell struct {
		name    string
		store   *index.Store
		metrics []distance.Metric
	}
	var cells []cell
	for _, n := range []int{10000, 100000} {
		for _, dim := range []int{8, 32} {
			rng := rand.New(rand.NewSource(int64(31*n + dim)))
			store := mustStore(b, synth.Gaussian[linalg.Vector](rng, n, dim, 3))
			metrics := make([]distance.Metric, 16)
			for i := range metrics {
				c := make(linalg.Vector, dim)
				for d := range c {
					c[d] = rng.NormFloat64() * 3
				}
				metrics[i] = &distance.Euclidean{Center: c}
			}
			cells = append(cells, cell{fmt.Sprintf("dim%d/n%d", dim, n), store, metrics})
		}
	}
	{
		rng := rand.New(rand.NewSource(mix16Seed))
		vecs, _ := synth.Mixture[linalg.Vector](rng, mix16Cats, mix16PerCat, 16, 5)
		store := mustStore(b, vecs)
		metrics := make([]distance.Metric, 16)
		for i := range metrics {
			first := rng.Intn(mix16Cats) * mix16PerCat
			pts := make([]cluster.Point, mix16PerCat)
			for j := range pts {
				pts[j] = cluster.Point{ID: first + j, Vec: store.Vector(first + j), Score: 1}
			}
			// A session searches with the Eq. 5 aggregate even over one
			// cluster (core.MetricInfo), never with a bare *Quadratic.
			metrics[i] = fullEq5(cluster.FromPoints(pts))
		}
		cells = append(cells, cell{"dim16/n64k", store, metrics})
	}
	for _, c := range cells {
		modes := []struct {
			name string
			tree *index.HybridTree
		}{
			{"seq", index.NewHybridTree(c.store, index.TreeOptions{Parallelism: 1})},
			{"par", index.NewHybridTree(c.store, index.TreeOptions{})},
		}
		for _, mode := range modes {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				var total index.SearchStats
				for i := 0; i < b.N; i++ {
					_, stats := mode.tree.KNN(c.metrics[i%len(c.metrics)], k)
					total.Add(stats)
				}
				b.ReportMetric(float64(total.DistanceEvals)/float64(b.N), "exact-evals")
				b.ReportMetric(float64(total.Swept)/float64(b.N), "swept")
			})
		}
	}
}

// BenchmarkANN is what the ANN backend has earned (ROADMAP item 12, the
// ledger row in EXPERIMENTS.md): ann.Index.KNNEf at beam widths 100 and
// 512 beside the exact tree on one worker, k = 100, on BenchmarkKNN's
// dim16/n64k and dim32/n100000 stores, under the three metrics a session
// searches with — the Euclidean example query, the Eq. 5 aggregate over
// one cluster of 20 marks, and over two such clusters from two categories.
// A cluster's marks are the 20 nearest stored neighbours of a stored
// vector, which is what marking the first page gives (on dim16/n64k they
// share its 64-point category). Each graph cell reports recall@100
// against the tree's page: the graph is built under Euclidean distance,
// so the one-cluster cell, whose k = 100 reaches past the category into a
// Mahalanobis tail, is the one it does not answer.
func BenchmarkANN(b *testing.B) {
	const k, queries, marks = 100, 16, 20
	mixRng := rand.New(rand.NewSource(mix16Seed))
	mixVecs, _ := synth.Mixture[linalg.Vector](mixRng, mix16Cats, mix16PerCat, 16, 5)
	mix16 := mustStore(b, mixVecs)
	dimRng := rand.New(rand.NewSource(31*100000 + 32))
	dim32 := mustStore(b, synth.Gaussian[linalg.Vector](dimRng, 100000, 32, 3))
	for _, c := range []struct {
		name  string
		store *index.Store
		rng   *rand.Rand
	}{{"dim16/n64k", mix16, mixRng}, {"dim32/n100000", dim32, dimRng}} {
		tree := index.NewHybridTree(c.store, index.TreeOptions{Parallelism: 1})
		graph, err := ann.New(c.store, ann.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		marked := func(seed int) *cluster.Cluster {
			page, _ := tree.KNN(&distance.Euclidean{Center: c.store.Vector(seed)}, marks)
			pts := make([]cluster.Point, len(page))
			for i, r := range page {
				pts[i] = cluster.Point{ID: r.ID, Vec: c.store.Vector(r.ID), Score: 1}
			}
			return cluster.FromPoints(pts)
		}
		families := [3]string{"euclid", "one-cluster", "two-clusters"}
		var byFamily [3][]distance.Metric
		for q := 0; q < queries; q++ {
			// Two seeds at least one category apart on the clustered store.
			seed := c.rng.Intn(c.store.Len() / 2)
			c1, c2 := marked(seed), marked(seed+c.store.Len()/2)
			byFamily[0] = append(byFamily[0], &distance.Euclidean{Center: c.store.Vector(seed)})
			byFamily[1] = append(byFamily[1], fullEq5(c1))
			byFamily[2] = append(byFamily[2], fullEq5(c1, c2))
		}
		for f, family := range families {
			metrics := byFamily[f]
			exact := make([]map[int]bool, len(metrics))
			for i, m := range metrics {
				page, _ := tree.KNN(m, k)
				exact[i] = make(map[int]bool, len(page))
				for _, r := range page {
					exact[i][r.ID] = true
				}
			}
			b.Run(c.name+"/"+family+"/exact", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tree.KNN(metrics[i%len(metrics)], k)
				}
			})
			for _, ef := range []int{100, 512} {
				b.Run(fmt.Sprintf("%s/%s/ef%d", c.name, family, ef), func(b *testing.B) {
					hits := 0
					for i, m := range metrics {
						page, _, _ := graph.KNNEf(context.Background(), m, k, ef)
						for _, r := range page {
							if exact[i][r.ID] {
								hits++
							}
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						graph.KNNEf(context.Background(), metrics[i%len(metrics)], k, ef)
					}
					b.ReportMetric(float64(hits)/float64(k*len(metrics)), "recall@100")
				})
			}
		}
	}
}

// BenchmarkAblations runs each small-sample correction removed in turn
// on the complex-query vector world; the reported recall shows what each
// correction contributes (see DESIGN.md "Implementation notes").
func BenchmarkAblations(b *testing.B) {
	wcfg := eval.VectorWorldConfig{Seed: 9, NumCategories: 16, PerCategory: 60}
	cfg := eval.WorkloadConfig{
		NumQueries: 8, Iterations: 4, K: 100, Seed: 5,
		UseIndex: true, RelatedScore: -1,
	}
	var results []eval.AblationResult
	for i := 0; i < b.N; i++ {
		results = eval.RunAblations(cfg, wcfg)
	}
	for _, r := range results {
		last := len(r.Series.Recall) - 1
		b.ReportMetric(r.Series.Recall[last], "recall/"+r.Name)
	}
}
