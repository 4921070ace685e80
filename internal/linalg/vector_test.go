package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := v.Add(w); !got.Equal(Vector{5, -3, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(Vector{-3, 7, -3}, 0) {
		t.Errorf("Sub = %v", got)
	}
}

func TestVectorScaleDot(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Scale(2); !got.Equal(Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(Vector{1, 1, 1}); got != 6 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 1, 1}
	v.AddScaled(2, Vector{1, 2, 3})
	if !v.Equal(Vector{3, 5, 7}, 0) {
		t.Errorf("AddScaled = %v", v)
	}
}

func TestVectorNormDist(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := v.Dist(Vector{0, 0}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := v.SqDist(Vector{0, 0}); got != 25 {
		t.Errorf("SqDist = %v", got)
	}
}

func TestVectorOuter(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 4, 5}
	m := v.Outer(w)
	want := fromRows([]Vector{{3, 4, 5}, {6, 8, 10}})
	if !m.Equal(want, 0) {
		t.Errorf("Outer = \n%v", m)
	}
}

func TestVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

// Property: Cauchy-Schwarz |v·w| <= |v||w|.
func TestPropCauchySchwarz(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		v := clampVec(Vector{a, b, c})
		w := clampVec(Vector{d, e, g})
		return math.Abs(v.Dot(w)) <= v.Norm()*w.Norm()*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for the Euclidean distance.
func TestPropTriangleInequality(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		u := clampVec(Vector{a, b})
		v := clampVec(Vector{c, d})
		w := clampVec(Vector{e, g})
		return u.Dist(w) <= u.Dist(v)+v.Dist(w)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampVec maps arbitrary quick-generated floats into a sane finite range.
func clampVec(v Vector) Vector {
	for i := range v {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			v[i] = 0
		}
		v[i] = math.Mod(v[i], 1e6)
	}
	return v
}
