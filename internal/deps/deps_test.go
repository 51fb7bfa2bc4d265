package deps

import (
	"testing"
	"testing/quick"

	"repro/internal/ilmath"
)

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewSet(ilmath.V(1, 0), ilmath.V(1)); err == nil {
		t.Error("mixed dimensions accepted")
	}
	if _, err := NewSet(ilmath.V(0, 0)); err == nil {
		t.Error("zero vector accepted")
	}
	if _, err := NewSet(ilmath.V(-1, 2)); err == nil {
		t.Error("lexicographically negative vector accepted")
	}
	if _, err := NewSet(ilmath.V(0, -1)); err == nil {
		t.Error("lexicographically negative vector accepted")
	}
	if _, err := NewSet(ilmath.V(1, -5)); err != nil {
		t.Errorf("lex-positive vector with negative tail rejected: %v", err)
	}
}

func TestSetAccessors(t *testing.T) {
	s := MustNewSet(ilmath.V(1, 1), ilmath.V(0, 1))
	if s.Dim() != 2 || s.Len() != 2 {
		t.Errorf("Dim/Len = %d/%d", s.Dim(), s.Len())
	}
	if !s.At(0).Equal(ilmath.V(1, 1)) {
		t.Error("At(0) wrong")
	}
	// Mutating the returned vector must not affect the set.
	v := s.At(0)
	v[0] = 99
	if !s.At(0).Equal(ilmath.V(1, 1)) {
		t.Error("At leaks internal storage")
	}
	vs := s.Vectors()
	vs[1][0] = 99
	if !s.At(1).Equal(ilmath.V(0, 1)) {
		t.Error("Vectors leaks internal storage")
	}
}

func TestMaxComponent(t *testing.T) {
	s := MustNewSet(ilmath.V(1, -2, 0), ilmath.V(0, 3, 1))
	if got := s.MaxComponent(); !got.Equal(ilmath.V(1, 3, 1)) {
		t.Errorf("MaxComponent = %v", got)
	}
}

func TestIsNonNegative(t *testing.T) {
	if !Example1Deps().IsNonNegative() {
		t.Error("Example1Deps should be non-negative")
	}
	if MustNewSet(ilmath.V(1, -1)).IsNonNegative() {
		t.Error("set with negative component reported non-negative")
	}
}

func TestUnit(t *testing.T) {
	u := Unit(3)
	if u.Len() != 3 || u.Dim() != 3 {
		t.Fatalf("Unit(3) shape wrong")
	}
	want := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i, w := range want {
		if !u.At(i).Equal(ilmath.V(w...)) {
			t.Errorf("Unit(3)[%d] = %v", i, u.At(i))
		}
	}
}

func TestPaperSets(t *testing.T) {
	if Example1Deps().Len() != 3 || Example1Deps().Dim() != 2 {
		t.Error("Example1Deps wrong shape")
	}
	if Stencil3D().Len() != 3 || Stencil3D().Dim() != 3 {
		t.Error("Stencil3D wrong shape")
	}
	if got := Example1Deps().String(); got != "{(1, 1), (1, 0), (0, 1)}" {
		t.Errorf("String = %q", got)
	}
}

// TestPropUnitMaxComponent checks that Unit(n) has all-ones MaxComponent.
func TestPropUnitMaxComponent(t *testing.T) {
	f := func(n uint8) bool {
		d := int(n%6) + 1
		mc := Unit(d).MaxComponent()
		for _, x := range mc {
			if x != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropAllVectorsLexPositive: any successfully constructed set contains
// only lexicographically positive vectors.
func TestPropAllVectorsLexPositive(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		v1 := ilmath.V(a%10, b%10)
		v2 := ilmath.V(c%10, d%10)
		s, err := NewSet(v1, v2)
		if err != nil {
			return true // rejection is fine
		}
		for _, v := range s.Vectors() {
			if !v.LexPositive() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
