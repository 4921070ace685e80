package main

import (
	"fmt"
	"math"
	"sort"

	qcluster "repro"
	"repro/internal/distance"
	"repro/internal/linalg"
)

// schemeOptions maps the wire scheme name to the query options qserve
// builds for it (its defaults otherwise).
func schemeOptions(scheme string) qcluster.Options {
	if scheme == "full_inverse" {
		return qcluster.Options{Scheme: qcluster.FullInverse}
	}
	return qcluster.Options{Scheme: qcluster.Diagonal}
}

// scanTopK is the ROADMAP's one oracle: a linear scan with the scalar
// Metric.Eval over the first n vectors, ordered by (dist, id).
func scanTopK(m distance.Metric, vectors [][]float64, n, topK int) []resultItem {
	all := make([]resultItem, n)
	for id := 0; id < n; id++ {
		all[id] = resultItem{ID: id, Dist: m.Eval(linalg.Vector(vectors[id]))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].ID < all[b].ID
	})
	return all[:min(topK, n)]
}

// points resolves wire marks to the scored vectors the server resolved
// them to.
func (c *corpus) points(marks []feedbackPoint) []qcluster.Point {
	out := make([]qcluster.Point, len(marks))
	for i, m := range marks {
		out[i] = qcluster.Point{ID: m.ID, Vec: c.vectors[m.ID], Score: m.Score}
	}
	return out
}

// checkSession replays one recorded session in the harness — the same
// example, the same marks, a fresh query model — and compares every page
// the server returned with the oracle's: ids and Float64bits(dist) must
// match at every rank. It returns the number of mismatching pages.
func checkSession(w workload, c *corpus, rec sessionRecord) (mismatches int, err error) {
	q := qcluster.NewQuery(schemeOptions(w.scheme))
	for round := 0; round <= feedbackRounds; round++ {
		var m distance.Metric
		if round == 0 {
			m = qcluster.EuclideanMetric(c.vectors[rec.queryID])
		} else {
			if err := q.Feedback(c.points(rec.marks[round-1])); err != nil {
				return mismatches, fmt.Errorf("replaying round %d of query %d: %w", round, rec.queryID, err)
			}
			if !q.Ready() {
				// Nothing relevant was ever marked: the server keeps serving
				// the example query.
				m = qcluster.EuclideanMetric(c.vectors[rec.queryID])
			} else {
				m = q.Metric()
			}
		}
		want := scanTopK(m, c.vectors, rec.items[round], k)
		if !samePage(rec.pages[round], want) {
			mismatches++
		}
	}
	return mismatches, nil
}

func samePage(got, want []resultItem) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}
