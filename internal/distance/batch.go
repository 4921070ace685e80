package distance

import (
	"math"

	"repro/internal/linalg"
)

// BatchMetric is a Metric that can evaluate many candidates in one
// call, with bound-aware early abandonment. The k-NN substrates feed it
// rows gathered straight out of the store's contiguous block, so the
// kernels sweep memory sequentially instead of chasing per-id
// subslices.
//
// Contract: flat holds len(out) candidate vectors row-major (candidate
// r occupies flat[r*dim : (r+1)*dim]) and dim must equal Dim(). For
// every candidate the kernel either writes the exact Eval value —
// bit-identical to the scalar path, which shares the same row
// evaluators — or, when the monotone partial accumulation provably
// exceeds bound, abandons the candidate mid-row and writes +Inf. A
// bound of +Inf disables abandonment entirely, so every entry is then
// exact. Callers prune +Inf entries: a distance certified to exceed
// the k-th-best bound can never enter the result heap.
type BatchMetric interface {
	Metric
	EvalBatch(flat []float64, dim int, bound float64, out []float64)
}

// checkBatch validates the EvalBatch layout contract.
func checkBatch(metricDim, dim int, flat, out []float64) {
	if dim != metricDim {
		panic("distance: EvalBatch dimension mismatch")
	}
	if len(flat) != len(out)*dim {
		panic("distance: EvalBatch flat/out length mismatch")
	}
}

// abandonChunk is how many dimensions the sum-of-squares kernels
// accumulate between bound checks: long enough that the compare is
// amortized, short enough that a hopeless candidate dies early. The
// cheap per-dimension kernels unroll it fully with a balanced
// reduction tree, which breaks the serial FP-add dependency chain —
// that is what lets the bound-checked kernel match a plain
// sum-of-squares loop even when no candidate is abandoned.
const abandonChunk = 8

// disjunctiveSlack is the relative margin Disjunctive.EvalBatch leaves
// between the caller's bound and the bound it abandons parts against.
const disjunctiveSlack = 1e-9

// disjunctivePart is what Disjunctive.EvalBatch keeps per part: the
// candidate's distance to it and the call's point-filter state.
type disjunctivePart struct {
	dist   float64
	filter pointFilter
}

// disjunctiveStackParts is how many of them stay on EvalBatch's stack: a
// sweep calls it once per 256-id chunk, and a session's model has at
// most MaxQueryPoints (default 5) parts.
const disjunctiveStackParts = 8

// evalRowBound is the Euclidean row kernel: ||c - row||² with early
// abandonment once the partial sum exceeds bound. Eval routes through
// this same function (bound = +Inf), so completed batch evaluations
// are bit-identical to the scalar path by construction.
func (e *Euclidean) evalRowBound(row []float64, bound float64) float64 {
	c := e.Center
	row = row[:len(c)] // equal lengths let the compiler drop row[k] checks
	var s float64
	i := 0
	for ; i+abandonChunk <= len(c); i += abandonChunk {
		cs, rs := c[i:i+abandonChunk:i+abandonChunk], row[i:i+abandonChunk:i+abandonChunk]
		d0 := cs[0] - rs[0]
		d1 := cs[1] - rs[1]
		d2 := cs[2] - rs[2]
		d3 := cs[3] - rs[3]
		d4 := cs[4] - rs[4]
		d5 := cs[5] - rs[5]
		d6 := cs[6] - rs[6]
		d7 := cs[7] - rs[7]
		s += ((d0*d0 + d1*d1) + (d2*d2 + d3*d3)) + ((d4*d4 + d5*d5) + (d6*d6 + d7*d7))
		if s > bound {
			return math.Inf(1)
		}
	}
	for ; i < len(c); i++ {
		d := c[i] - row[i]
		s += d * d
	}
	if s > bound {
		return math.Inf(1)
	}
	return s
}

// EvalBatch implements BatchMetric.
func (e *Euclidean) EvalBatch(flat []float64, dim int, bound float64, out []float64) {
	checkBatch(len(e.Center), dim, flat, out)
	for r := range out {
		out[r] = e.evalRowBound(flat[r*dim:(r+1)*dim], bound)
	}
}

// evalRowBound is the quadratic row kernel. Both schemes accumulate a
// sum of non-negative terms — per-dimension weighted squares for the
// diagonal scheme, squared whitened components ||U(x-c)||² for the
// full scheme — so the partial sum is monotone and the candidate can
// be abandoned the moment it exceeds bound. The non-PD dense fallback
// has sign-indefinite cross terms and is always evaluated exactly.
func (q *Quadratic) evalRowBound(row []float64, bound float64) float64 {
	c := q.Center
	if q.invDiag != nil {
		w := q.invDiag
		row = row[:len(c)] // equal lengths enable BCE in the chunk loop
		var s float64
		i := 0
		for ; i+abandonChunk <= len(c); i += abandonChunk {
			cs := c[i : i+abandonChunk : i+abandonChunk]
			rs := row[i : i+abandonChunk : i+abandonChunk]
			ws := w[i : i+abandonChunk : i+abandonChunk]
			d0 := rs[0] - cs[0]
			d1 := rs[1] - cs[1]
			d2 := rs[2] - cs[2]
			d3 := rs[3] - cs[3]
			d4 := rs[4] - cs[4]
			d5 := rs[5] - cs[5]
			d6 := rs[6] - cs[6]
			d7 := rs[7] - cs[7]
			s += ((d0*d0*ws[0] + d1*d1*ws[1]) + (d2*d2*ws[2] + d3*d3*ws[3])) +
				((d4*d4*ws[4] + d5*d5*ws[5]) + (d6*d6*ws[6] + d7*d7*ws[7]))
			if s > bound {
				return math.Inf(1)
			}
		}
		for ; i < len(c); i++ {
			d := row[i] - c[i]
			s += d * d * w[i]
		}
		if s > bound {
			return math.Inf(1)
		}
		return s
	}
	if q.whiten != nil {
		n := len(c)
		u := q.whiten.Data
		row = row[:n] // equal lengths enable BCE in the row sweep
		var s float64
		off := 0
		for j := 0; j < n; j++ {
			cd, rd := c[j:], row[j:]
			ur := u[off : off+len(cd)]
			var r float64
			for k, cv := range cd {
				r += ur[k] * (rd[k] - cv)
			}
			s += r * r
			off += len(cd)
			if s > bound {
				return math.Inf(1)
			}
		}
		return s
	}
	return q.invFull.QuadFormDiff(linalg.Vector(row), c)
}

// EvalBatch implements BatchMetric. A candidate the point filter rejects
// is one evalRowBound would have abandoned, so it gets the same +Inf.
func (q *Quadratic) EvalBatch(flat []float64, dim int, bound float64, out []float64) {
	checkBatch(len(q.Center), dim, flat, out)
	f := q.filter(bound)
	for r := range out {
		row := flat[r*dim : (r+1)*dim]
		if f.rejects(q, row) {
			out[r] = math.Inf(1)
			continue
		}
		out[r] = q.evalRowBound(row, bound)
	}
}

// EvalBatch implements BatchMetric for the Eq. 5 aggregate. Because
// d²_disj ≥ min_i d²_i, a candidate may be abandoned only when every
// per-cluster part exceeds the bound; each part is therefore evaluated
// with the shared bound first (far candidates die after a handful of
// whitened rows per part), and only a candidate with at least one
// surviving part pays exact re-evaluation of its abandoned parts so
// the aggregate — accumulated in the same part order as the scalar
// path — stays bit-identical.
//
// The inequality holds in real arithmetic; the reported aggregate goes
// through one rounding per part and two more, and can land a few ulps
// under the smallest part. A caller may pass a bound that is exactly some
// candidate's aggregate (a sweep re-evaluates the vector that set its
// k-th best), so the parts are held to a bound loosened by
// disjunctiveSlack, orders of magnitude more than those roundings: a
// candidate whose aggregate is at or under bound is never abandoned.
func (d *Disjunctive) EvalBatch(flat []float64, dim int, bound float64, out []float64) {
	checkBatch(d.Dim(), dim, flat, out)
	var few [disjunctiveStackParts]disjunctivePart
	parts := few[:]
	if len(d.Parts) > len(few) {
		parts = make([]disjunctivePart, len(d.Parts))
	}
	parts = parts[:len(d.Parts)]
	partBound := bound * (1 + disjunctiveSlack)
	for i, p := range d.Parts {
		parts[i].filter = p.filter(partBound)
	}
	for r := range out {
		row := flat[r*dim : (r+1)*dim]
		alive := false
		for i, p := range d.Parts {
			part := &parts[i]
			if part.filter.rejects(p, row) {
				part.dist = math.Inf(1)
				continue
			}
			part.dist = p.evalRowBound(row, partBound)
			if !math.IsInf(part.dist, 1) {
				alive = true
			}
		}
		if !alive {
			// Every part exceeds the bound, hence so does the fuzzy OR.
			// (If every part is genuinely +Inf the aggregate is +Inf too,
			// so the report is exact even without abandonment.)
			out[r] = math.Inf(1)
			continue
		}
		var denom float64
		for i := range parts {
			di := parts[i].dist
			if math.IsInf(di, 1) {
				di = d.Parts[i].evalRowBound(row, math.Inf(1))
			}
			if di < epsilonDist {
				di = epsilonDist
			}
			denom += d.Weights[i] / di
		}
		out[r] = d.total / denom
	}
}
