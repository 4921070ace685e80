package eval

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/stat"
)

// EngineSeries is the per-iteration averaged outcome for one engine —
// the rows behind Figs. 6-13.
type EngineSeries struct {
	Name string
	// Recall[i] and Precision[i] are at full scope K for iteration i
	// (i = 0 is the initial query), averaged over queries.
	Recall    []float64
	Precision []float64
	// CPUMillis[i] is the mean wall-clock retrieval time per iteration.
	CPUMillis []float64
	// DistanceEvals and NodesVisited are mean index work per iteration.
	DistanceEvals []float64
	NodesVisited  []float64
	// QueryPoints is the mean number of Qcluster query points: 1 before
	// any feedback and for engines without a query model.
	QueryPoints []float64
	// Curves[i] is the mean precision-recall curve of iteration i
	// (scope 1..K) — the lines of Figs. 8-9.
	Curves [][]PRPoint
}

// Series averages the sweep's trials per iteration.
func (s Sweep) Series() EngineSeries {
	iters := len(s.Trials[0].Rounds)
	out := EngineSeries{
		Name:          s.Name,
		Recall:        make([]float64, iters),
		Precision:     make([]float64, iters),
		CPUMillis:     make([]float64, iters),
		DistanceEvals: make([]float64, iters),
		NodesVisited:  make([]float64, iters),
		QueryPoints:   make([]float64, iters),
		Curves:        make([][]PRPoint, iters),
	}
	curves := make([][][]PRPoint, iters)
	for _, t := range s.Trials {
		rel, total := s.judge(t)
		for i, it := range t.Rounds {
			p, r := PrecisionRecall(it.IDs, rel, len(it.IDs), total)
			out.Precision[i] += p
			out.Recall[i] += r
			out.CPUMillis[i] += float64(it.Elapsed) / float64(time.Millisecond)
			out.DistanceEvals[i] += float64(it.Stats.DistanceEvals)
			out.NodesVisited[i] += float64(it.Stats.NodesVisited)
			out.QueryPoints[i] += float64(max(1, len(it.Model.Clusters)))
			curves[i] = append(curves[i], PRCurve(it.IDs, rel, total))
		}
	}
	n := float64(len(s.Trials))
	for i := 0; i < iters; i++ {
		out.Recall[i] /= n
		out.Precision[i] /= n
		out.CPUMillis[i] /= n
		out.DistanceEvals[i] /= n
		out.NodesVisited[i] /= n
		out.QueryPoints[i] /= n
		out.Curves[i] = MeanCurves(curves[i])
	}
	return out
}

// PairedComparison compares two engines' final-iteration recall per
// query on the SAME query sequence — a paired design, so query
// difficulty cancels out and the significance of the mean difference can
// be assessed with a paired t test.
type PairedComparison struct {
	NameA, NameB string
	// MeanA and MeanB are final-iteration recalls averaged over queries.
	MeanA, MeanB float64
	// MeanDiff = mean(recallA - recallB) per query.
	MeanDiff float64
	// TStat is the paired t statistic of the differences; PValue is the
	// two-sided p-value under t_{n-1}.
	TStat, PValue float64
	// Queries is the number of paired observations.
	Queries int
}

// Paired compares two sweeps of one Run (or of Runs with one Config and
// World, which draw the same queries).
func Paired(a, b Sweep) PairedComparison {
	out := PairedComparison{NameA: a.Name, NameB: b.Name, Queries: len(a.Trials)}
	diffs := make([]float64, len(a.Trials))
	var sumA, sumB float64
	for i, ta := range a.Trials {
		tb := b.Trials[i]
		if ta.Query != tb.Query {
			panic("eval: paired sweeps ran different queries")
		}
		ra, rb := a.finalRecall(ta), b.finalRecall(tb)
		sumA += ra
		sumB += rb
		diffs[i] = ra - rb
	}
	n := float64(len(diffs))
	out.MeanA = sumA / n
	out.MeanB = sumB / n
	out.MeanDiff = stat.Mean(diffs)
	sd := math.Sqrt(stat.SampleVariance(diffs))
	if sd > 0 && n > 1 {
		out.TStat = out.MeanDiff / (sd / math.Sqrt(n))
		// Two-sided p-value under t with n-1 degrees of freedom.
		out.PValue = 2 * (1 - stat.StudentTCDF(math.Abs(out.TStat), n-1))
	} else {
		out.PValue = 1
		if out.MeanDiff != 0 {
			out.PValue = 0 // identical nonzero difference on every query
		}
	}
	return out
}

// ModalityBreakdown splits an engine's final-iteration recall by query
// difficulty class: queries whose ground-truth category is unimodal
// ("simple") versus multi-variant ("complex"). The paper's thesis lives
// entirely in the complex column.
type ModalityBreakdown struct {
	Name                          string
	SimpleRecall, ComplexRecall   float64
	SimpleQueries, ComplexQueries int
}

// Split folds the sweep's final recalls into the breakdown.
func (s Sweep) Split() ModalityBreakdown {
	out := ModalityBreakdown{Name: s.Name}
	for _, t := range s.Trials {
		r := s.finalRecall(t)
		if t.Complex {
			out.ComplexRecall += r
			out.ComplexQueries++
		} else {
			out.SimpleRecall += r
			out.SimpleQueries++
		}
	}
	if out.SimpleQueries > 0 {
		out.SimpleRecall /= float64(out.SimpleQueries)
	}
	if out.ComplexQueries > 0 {
		out.ComplexRecall /= float64(out.ComplexQueries)
	}
	return out
}

// ConvergenceResult quantifies the paper's second experimental goal —
// "test that the proposed Qcluster algorithm converges to the user's
// true information needs fast" — with three per-iteration series.
type ConvergenceResult struct {
	// RecallGain[i] is the mean recall improvement from iteration i-1 to
	// i (index 0 unused). Fast convergence = a large first entry and a
	// rapidly vanishing tail.
	RecallGain []float64
	// ResultChurn[i] is the mean fraction of the top-k that changed
	// between iterations i-1 and i; a converged query re-retrieves the
	// same set.
	ResultChurn []float64
	// ModelDrift[i] is the mean movement of the query representatives
	// between iterations (sum over clusters of nearest-centroid
	// distances, normalized by the feature-space scale); zero for an
	// engine without representatives.
	ModelDrift []float64
}

// Convergence folds the sweep's round-to-round deltas.
func (s Sweep) Convergence() ConvergenceResult {
	iters := len(s.Trials[0].Rounds)
	res := ConvergenceResult{
		RecallGain:  make([]float64, iters),
		ResultChurn: make([]float64, iters),
		ModelDrift:  make([]float64, iters),
	}
	scale := featureScale(s.World.Vectors)
	for _, t := range s.Trials {
		rel, total := s.judge(t)
		var prevRecall float64
		for i, it := range t.Rounds {
			_, recall := PrecisionRecall(it.IDs, rel, len(it.IDs), total)
			if i > 0 {
				prev := t.Rounds[i-1]
				res.RecallGain[i] += recall - prevRecall
				res.ResultChurn[i] += churn(prev.IDs, it.IDs)
				res.ModelDrift[i] += repDrift(prev.Model, it.Model) / scale
			}
			prevRecall = recall
		}
	}
	n := float64(len(s.Trials))
	for i := range res.RecallGain {
		res.RecallGain[i] /= n
		res.ResultChurn[i] /= n
		res.ModelDrift[i] /= n
	}
	return res
}

// churn returns the fraction of cur not present in prev.
func churn(prev, cur []int) float64 {
	if len(cur) == 0 {
		return 0
	}
	seen := make(map[int]bool, len(prev))
	for _, id := range prev {
		seen[id] = true
	}
	changed := 0
	for _, id := range cur {
		if !seen[id] {
			changed++
		}
	}
	return float64(changed) / float64(len(cur))
}

// repDrift sums, over current cluster centroids, the distance to the
// nearest previous centroid (0 when there was no previous model).
func repDrift(prev, cur core.Description) float64 {
	if len(prev.Clusters) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cur.Clusters {
		best := math.Inf(1)
		for _, p := range prev.Clusters {
			if d := c.Centroid.Dist(p.Centroid); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum
}

// featureScale estimates the feature-space scale as the RMS distance of
// vectors from their mean, for normalizing drift values.
func featureScale(vecs []linalg.Vector) float64 {
	if len(vecs) == 0 {
		return 1
	}
	mean := linalg.NewVector(vecs[0].Dim())
	for _, v := range vecs {
		mean.AddScaled(1, v)
	}
	mean = mean.Scale(1 / float64(len(vecs)))
	var s float64
	for _, v := range vecs {
		s += v.SqDist(mean)
	}
	s = math.Sqrt(s / float64(len(vecs)))
	if s == 0 {
		return 1
	}
	return s
}
