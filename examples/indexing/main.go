// Indexing compares the two k-NN substrates on the same 50,000-vector
// store: linear scan and the hybrid-tree-style index (the structure the
// paper indexes its features with). Both answer single-point and
// disjunctive multipoint queries exactly; they differ in how much work
// each query costs.
//
//	go run ./examples/indexing
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/linalg"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	const n, dim = 50000, 4
	vecs := make([]linalg.Vector, n)
	for i := range vecs {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.NormFloat64() * 2
		}
		vecs[i] = v
	}
	store, err := index.NewStore(vecs)
	if err != nil {
		panic(err)
	}

	fmt.Printf("store: %d vectors, %d dims\n\n", store.Len(), store.Dim())
	buildStart := time.Now()
	tree := index.NewHybridTree(store, index.TreeOptions{})
	fmt.Printf("hybrid tree built in %v (height %d, leaf capacity %d)\n\n",
		time.Since(buildStart).Round(time.Microsecond), tree.Height(), tree.LeafCapacity())

	scan := index.NewLinearScan(store)
	searchers := []struct {
		name string
		s    index.Searcher
	}{
		{"linear scan", scan},
		{"hybrid tree", tree},
	}

	// A single-point query and a two-cluster disjunctive query (Eq. 5).
	center := linalg.Vector{0.5, -0.5, 1, 0}
	q1 := distance.NewQuadraticDiag(linalg.Vector{-2, -2, -2, -2}, linalg.Vector{1, 1, 1, 1})
	q2 := distance.NewQuadraticDiag(linalg.Vector{2, 2, 2, 2}, linalg.Vector{1, 1, 1, 1})
	queries := []struct {
		name string
		m    distance.Metric
	}{
		{"euclidean", &distance.Euclidean{Center: center}},
		{"disjunctive", distance.NewDisjunctive([]*distance.Quadratic{q1, q2}, []float64{1, 1})},
	}

	for _, q := range queries {
		fmt.Printf("top-100 %s query:\n", q.name)
		var reference []index.Result
		for _, sc := range searchers {
			start := time.Now()
			res, stats := sc.s.KNN(q.m, 100)
			elapsed := time.Since(start)
			agree := "(reference)"
			if reference == nil {
				reference = res
			} else if sameIDs(reference, res) {
				agree = "results identical"
			} else {
				agree = "RESULTS DIFFER!"
			}
			fmt.Printf("  %-12s %8v  exact distance evals: %6d/%d  %s\n",
				sc.name, elapsed.Round(time.Microsecond), stats.DistanceEvals, n, agree)
		}
		fmt.Println()
	}
}

func sameIDs(a, b []index.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}
