package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it. xs need not be sorted; an empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailCandidates are the percentiles a report may quote, low to high.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// highestPercentile picks, for n samples, the highest candidate
// percentile that still has at least ten samples beyond it. With fewer
// than twenty samples not even the median has, and it returns 50.
func highestPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		// Integer arithmetic in tenths of a percent: p/100*n rounds badly
		// at exactly the boundary counts (n = 100, 1000).
		beyond := n - (n*int(math.Round(p*10))+999)/1000
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a per-layer share with nothing to
// divide by reads 0, not NaN, so the result stays valid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is how the acceptance check measures spread. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
