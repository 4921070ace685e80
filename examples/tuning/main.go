// Tuning sweeps Qcluster's two main knobs on a fixed retrieval workload:
// the significance level α (which sets both the effective radius of
// Lemma 1 and the T² critical distance of Eq. 16 — smaller α merges
// more) and the covariance scheme (diagonal vs full inverse, the paper's
// Fig. 6 trade-off). It prints final-iteration recall, mean query-point
// count and wall-clock time per configuration.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/imagegen"
	"repro/internal/rf"
)

func main() {
	ds, err := dataset.Build(dataset.Config{
		Collection: imagegen.CollectionConfig{
			Seed: 5, NumCategories: 24, ImagesPerCategory: 50,
			ImageSize: 24, Themes: 6, BimodalFrac: 0.4,
		},
	})
	if err != nil {
		panic(err)
	}
	w := eval.ImageWorld(ds, dataset.ColorMoments)
	// A modest workload keeps the sweep quick.
	cfg := eval.Config{NumQueries: 20, Iterations: 4, K: 50, Seed: 99}

	fmt.Printf("%-10s %-9s %10s %10s %8s %10s\n",
		"alpha", "scheme", "recall@4", "prec@4", "qpoints", "time")
	for _, scheme := range []cluster.Scheme{cluster.Diagonal, cluster.FullInverse} {
		for _, alpha := range []float64{0.2, 0.05, 0.01, 0.001} {
			start := time.Now()
			s := eval.Run(cfg, w, func() rf.Engine {
				return rf.NewQcluster(core.Options{Scheme: scheme, Alpha: alpha})
			})[0].Series()
			last := len(s.Recall) - 1
			fmt.Printf("%-10.3f %-9s %10.3f %10.3f %8.2f %10s\n",
				alpha, scheme, s.Recall[last], s.Precision[last],
				s.QueryPoints[last], time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Println("\nsmaller α widens both the effective radius and the merge")
	fmt.Println("acceptance region (fewer, larger query clusters); the diagonal")
	fmt.Println("scheme should match the inverse scheme's quality at a fraction")
	fmt.Println("of the cost (paper Fig. 6).")
}
