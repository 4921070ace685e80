package distance

import (
	"math"

	"repro/internal/linalg"
)

// A full-scheme part pays O(d²) to evaluate a candidate and, because the
// packed factor's first row is its longest, most of that to abandon one.
// The point filter rejects a candidate before the row kernel sees it, in
// two O(d)-sized stages: the paper's diagonal scheme scaled down to a
// certified floor of the full one, then the eight shortest whitened rows.
// Its one contract, for the filter f a part q builds for a bound, is
//
//	f.rejects(q, row)  ⇒  q.evalRowBound(row, bound) = +Inf,
//
// so a batch kernel that consults it writes the same floats and the same
// +Inf positions as one that does not. It never produces a value, and the
// scalar Eval never consults it.

const (
	// filterSlack is the relative margin both stages leave over the
	// caller's bound, and filterMinBound the least bound they reject
	// against: it keeps every quantity in the rounding arguments below
	// far above the subnormal range.
	filterSlack    = 1e-9
	filterMinBound = 1e-200

	// floorArmMin is the smallest certified μ the diagonal floor is built
	// for: under it the floor is too far below the form to reject anything,
	// and floorRounding would no longer be small beside it.
	floorArmMin = 1e-3

	// floorRounding·n³ is subtracted from the certified μ. In the scaled
	// coordinates y = D^½(x−c) the exact kernel computes yᵀ(C+E)y with C
	// of unit diagonal, and every source of E — forming C, the shifted
	// factorization that certifies μ, the Cholesky factor the kernel
	// multiplies by, its dot products — is under 2n^2.5·2⁻⁵³ in norm
	// whatever the axis scales (entries of the scaled factor are ≤ 1).
	// What is left, the few ulps of the two sums, filterSlack covers.
	floorRounding = 0x1p-48

	// floorWeightMin/Max bound the floor's per-axis weights μ·W_kk: outside
	// them a squared difference could leave the normal range on its way
	// through the floor and not through the form, so none is built.
	floorWeightMin, floorWeightMax = 1e-100, 1e100
)

// diagonalFloor returns the per-axis weights μ·W_kk of the paper's
// diagonal scheme scaled to a floor of the full one, or nil when the
// floor is not armed. With D = diag(W) and μ ≤ λ_min(D^-½ W D^-½),
// W − μD ⪰ 0, hence Σ_k μW_kk(x_k−c_k)² ≤ (x−c)ᵀW(x−c). Unlike
// λ_min(W)·‖x−c‖² the bound is exact for diagonal W and does not move
// when an axis is rescaled. w must be positive definite.
func diagonalFloor(w *linalg.Matrix) linalg.Vector {
	n := w.Rows
	scale := make(linalg.Vector, n)
	for k := range scale {
		scale[k] = 1 / math.Sqrt(w.Data[k*n+k])
	}
	c := linalg.NewMatrix(n, n) // from w's lower triangle, which is all Cholesky reads
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := w.Data[i*n+j] * scale[i] * scale[j]
			c.Data[i*n+j], c.Data[j*n+i] = v, v
		}
	}
	mu := linalg.SymLambdaMinFloor(c) - float64(n*n*n)*floorRounding
	if !(mu >= floorArmMin) {
		return nil
	}
	floor := scale // reuse: the scales are not needed past this point
	for k := range floor {
		g := mu * w.Data[k*n+k]
		if !(g >= floorWeightMin && g <= floorWeightMax) {
			return nil
		}
		floor[k] = g
	}
	return floor
}

// pointFilter is one EvalBatch call's use of one part's filter: the
// loosened bound and a gate per stage. What the gates decide is how much
// work a rejection takes, never whether one is valid.
type pointFilter struct {
	on          bool // the part has a filter and the bound is finite
	slack       float64
	floor, rows gate
}

// gate rations a stage by what it has earned in this call. A rejection
// saves the candidate most of an exact evaluation and earns gateHit
// credits, up to gateMax; a candidate the stage lets through costs one;
// and a stage out of credit sits out the next gateRest candidates before
// it is tried again. So the floor of a W the data never lets bite, or
// the short rows of a W whose energy is in the long ones, runs on one
// candidate in gateRest+1, and a stage that meets a near cluster in a
// store laid out cluster by cluster is back a few candidates after it.
// The count is credit when ≥ 0 and candidates of rest left when < 0.
type gate int

const (
	gateStart = 8
	gateHit   = 4
	gateMax   = 16
	gateRest  = 16
	gateNever = math.MinInt // a stage the part does not have
)

// open reports whether the stage runs on this candidate, which a resting
// gate counts off its rest.
func (g *gate) open() bool {
	if *g >= 0 {
		return true
	}
	*g++
	return false
}

func (g *gate) hit() { *g = min(*g+gateHit, gateMax) }

func (g *gate) miss() {
	if *g--; *g < 0 {
		*g = -gateRest
	}
}

// filter returns q's point filter for one call at bound. Only a
// Cholesky-whitened part of at least shortRows dimensions has one (under
// that the exact kernel is a handful of multiply-adds and a filter in
// front of it only adds calls), and a bound of +Inf, which nothing
// exceeds, leaves it off.
func (q *Quadratic) filter(bound float64) pointFilter {
	if q.whiten == nil || len(q.Center) < shortRows || !(bound < math.Inf(1)) {
		return pointFilter{}
	}
	f := pointFilter{on: true, slack: loosen(bound), floor: gateNever, rows: gateStart}
	if q.floor != nil {
		f.floor = gateStart
	}
	return f
}

// loosen is the bound both stages reject against.
func loosen(bound float64) float64 {
	return max(bound*(1+filterSlack), filterMinBound)
}

// rejects reports whether a stage whose gate is open certifies row
// farther than the call's bound. It inlines, so a part without a filter
// — every diagonal part — pays one compare.
func (f *pointFilter) rejects(q *Quadratic, row []float64) bool {
	return f.on && f.run(q, row)
}

func (f *pointFilter) run(q *Quadratic, row []float64) bool {
	if f.floor.open() {
		if q.floorExceeds(row, f.slack) {
			f.floor.hit()
			return true
		}
		f.floor.miss()
	}
	if f.rows.open() {
		if q.shortRowsSum(row) > f.slack {
			f.rows.hit()
			return true
		}
		f.rows.miss()
	}
	return false
}

// floorExceeds is stage 1: the diagonal floor, in the 8-wide tree-summed
// form of the diagonal kernel, against the loosened bound. A finite floor
// over it puts the exact form over the bound (diagonalFloor); an
// overflowed one proves nothing and leaves the candidate to the exact
// kernel.
func (q *Quadratic) floorExceeds(row []float64, slack float64) bool {
	c, w := q.Center, q.floor
	row, w = row[:len(c)], w[:len(c)] // equal lengths enable BCE in the chunk loop
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
		if s > slack {
			return s <= math.MaxFloat64
		}
	}
	for ; i < len(c); i++ {
		d := row[i] - c[i]
		s += d * d * w[i]
	}
	return s > slack && s <= math.MaxFloat64
}

// shortRows is the number of trailing rows of the packed factor stage 2
// reads — 1, 2, …, 8 entries long, 36 multiply-adds where the exact
// kernel's first row alone costs n — and so the least dimension a part
// needs for a filter.
const shortRows = 8

// shortRowsSum is stage 2: the squared whitened components of the last
// shortRows rows, as straight-line code with the eight rows' sums in
// flight together. Each r is accumulated term by term in evalRowBound's
// order, so the squares are the very floats its forward sum adds:
// any-order partial sums of them differ from that sum by under n ulps,
// and one over the loosened bound puts the forward sum over the bound.
func (q *Quadratic) shortRowsSum(row []float64) float64 {
	c, u := q.Center, q.whiten.Data
	t := u[len(u)-shortRows*(shortRows+1)/2:]
	cs, rs := c[len(c)-shortRows:], row[len(c)-shortRows:len(c)]
	_, _, _ = t[35], cs[7], rs[7] // hoist bounds checks
	d0 := rs[0] - cs[0]
	d1 := rs[1] - cs[1]
	d2 := rs[2] - cs[2]
	d3 := rs[3] - cs[3]
	d4 := rs[4] - cs[4]
	d5 := rs[5] - cs[5]
	d6 := rs[6] - cs[6]
	d7 := rs[7] - cs[7]
	r0 := t[0] * d0
	r0 += t[1] * d1
	r0 += t[2] * d2
	r0 += t[3] * d3
	r0 += t[4] * d4
	r0 += t[5] * d5
	r0 += t[6] * d6
	r0 += t[7] * d7
	r1 := t[8] * d1
	r1 += t[9] * d2
	r1 += t[10] * d3
	r1 += t[11] * d4
	r1 += t[12] * d5
	r1 += t[13] * d6
	r1 += t[14] * d7
	r2 := t[15] * d2
	r2 += t[16] * d3
	r2 += t[17] * d4
	r2 += t[18] * d5
	r2 += t[19] * d6
	r2 += t[20] * d7
	r3 := t[21] * d3
	r3 += t[22] * d4
	r3 += t[23] * d5
	r3 += t[24] * d6
	r3 += t[25] * d7
	r4 := t[26] * d4
	r4 += t[27] * d5
	r4 += t[28] * d6
	r4 += t[29] * d7
	r5 := t[30] * d5
	r5 += t[31] * d6
	r5 += t[32] * d7
	r6 := t[33] * d6
	r6 += t[34] * d7
	r7 := t[35] * d7
	return ((r0*r0 + r1*r1) + (r2*r2 + r3*r3)) + ((r4*r4 + r5*r5) + (r6*r6 + r7*r7))
}
