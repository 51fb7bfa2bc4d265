package ilmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := V(1, -2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	if got := v.String(); got != "(1, -2, 3)" {
		t.Errorf("String = %q", got)
	}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone is not independent")
	}
	if !v.Equal(V(1, -2, 3)) {
		t.Error("Equal failed on identical vectors")
	}
	if v.Equal(V(1, -2)) {
		t.Error("Equal true across dimensions")
	}
	if v.IsZero() {
		t.Error("IsZero true for nonzero vector")
	}
	if !NewVec(4).IsZero() {
		t.Error("IsZero false for zero vector")
	}
}

func TestVecArithmetic(t *testing.T) {
	v, w := V(1, 2, 3), V(4, 5, 6)
	if got := v.Add(w); !got.Equal(V(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(V(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %d, want 32", got)
	}
}

func TestVecMinMaxArg(t *testing.T) {
	v := V(3, 9, -1, 9)
	if v.ArgMax() != 1 {
		t.Errorf("ArgMax = %d, want first max index 1", v.ArgMax())
	}
}

func TestVecPredicates(t *testing.T) {
	if !V(0, 1, 2).IsNonNegative() {
		t.Error("IsNonNegative false for nonnegative vector")
	}
	if V(0, -1).IsNonNegative() {
		t.Error("IsNonNegative true for negative component")
	}
	cases := []struct {
		v    Vec
		want bool
	}{
		{V(1, -5), true},
		{V(0, 0, 1), true},
		{V(0, -1, 5), false},
		{V(0, 0, 0), false},
		{V(-1), false},
	}
	for _, c := range cases {
		if got := c.v.LexPositive(); got != c.want {
			t.Errorf("LexPositive(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched dimensions did not panic")
		}
	}()
	V(1, 2).Add(V(1, 2, 3))
}

func TestAddCheckedOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	addChecked(math.MaxInt64, 1)
}

func TestMulCheckedOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	mulChecked(math.MaxInt64/2, 3)
}

func TestSubCheckedOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	subChecked(math.MinInt64, 1)
}

// small bounds the magnitude of quick-generated ints so exact arithmetic
// cannot overflow inside property tests.
func small(x int64) int64 { return x % 1000 }

func TestPropVecAddCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		v := V(small(a), small(b), small(c))
		w := V(small(d), small(e), small(g))
		return v.Add(w).Equal(w.Add(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropVecDotSymmetric(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		v := V(small(a), small(b), small(c))
		w := V(small(d), small(e), small(g))
		return v.Dot(w) == w.Dot(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubAddRoundTrip(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		v := V(small(a), small(b))
		w := V(small(c), small(d))
		return v.Sub(w).Add(w).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Add returns v + w. It panics if dimensions differ.
func (v Vec) Add(w Vec) Vec {
	mustSameDim(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = addChecked(v[i], w[i])
	}
	return out
}
