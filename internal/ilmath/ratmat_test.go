package ilmath

import (
	"math/rand"
	"testing"
)

func TestRatMatBasics(t *testing.T) {
	m := NewRatMat(2, 2)
	m.Set(0, 0, NewRat(1, 2))
	m.Set(1, 1, NewRat(1, 3))
	if m.At(0, 0) != NewRat(1, 2) || m.At(0, 1) != RatZero {
		t.Error("Set/At wrong")
	}
	c := m.Clone()
	c.Set(0, 0, RatOne)
	if m.At(0, 0) != NewRat(1, 2) {
		t.Error("Clone not independent")
	}
	if !RatIdentity(2).equal(RatDiag(RatOne, RatOne)) {
		t.Error("RatIdentity != RatDiag(1,1)")
	}
}

func TestRatMatMul(t *testing.T) {
	// H = diag(1/2, 1/3); P = H⁻¹ = diag(2, 3); H·P = I.
	h := RatDiag(NewRat(1, 2), NewRat(1, 3))
	p := RatDiag(RatInt(2), RatInt(3))
	if !h.Mul(p).equal(RatIdentity(2)) {
		t.Error("H·H⁻¹ != I")
	}
}

func TestRatMatInverseDiagonal(t *testing.T) {
	h := RatDiag(NewRat(1, 10), NewRat(1, 10))
	p, err := h.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := RatDiag(RatInt(10), RatInt(10))
	if !p.equal(want) {
		t.Errorf("Inverse = %v, want %v", p, want)
	}
}

func TestRatMatInverseGeneral(t *testing.T) {
	// A = [[1, 2], [3, 5]]; det = -1; A⁻¹ = [[-5, 2], [3, -1]].
	a := matFromRows(V(1, 2), V(3, 5)).ToRat()
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := matFromRows(V(-5, 2), V(3, -1)).ToRat()
	if !inv.equal(want) {
		t.Errorf("Inverse = %v, want %v", inv, want)
	}
}

func TestRatMatInverseSingular(t *testing.T) {
	a := matFromRows(V(1, 2), V(2, 4)).ToRat()
	if _, err := a.Inverse(); err == nil {
		t.Error("inverse of singular matrix did not error")
	}
}

func TestRatMatInverseNonSquare(t *testing.T) {
	if _, err := NewRatMat(2, 3).Inverse(); err == nil {
		t.Error("inverse of non-square matrix did not error")
	}
}

func TestRatMatDet(t *testing.T) {
	h := RatDiag(NewRat(1, 2), NewRat(1, 5))
	if got := h.Det(); got != NewRat(1, 10) {
		t.Errorf("Det = %v, want 1/10", got)
	}
	if NewRatMat(0, 0).Det() != RatOne {
		t.Error("Det of 0x0 should be 1")
	}
	sing := matFromRows(V(1, 1), V(1, 1)).ToRat()
	if sing.Det() != RatZero {
		t.Error("Det of singular should be 0")
	}
	// Pivoting required: zero in top-left corner.
	perm := matFromRows(V(0, 1), V(1, 0)).ToRat()
	if perm.Det() != RatInt(-1) {
		t.Errorf("Det of permutation = %v, want -1", perm.Det())
	}
}

func TestRatMatFloorVec(t *testing.T) {
	// H = diag(1/10, 1/10): ⌊H·(25, -3)⌋ = (2, -1).
	h := RatDiag(NewRat(1, 10), NewRat(1, 10))
	got := h.FloorVec(V(25, -3))
	if !got.Equal(V(2, -1)) {
		t.Errorf("FloorVec = %v, want (2, -1)", got)
	}
}

// TestPropInverseRoundTrip checks A·A⁻¹ = I on random invertible rational
// matrices derived from random integer matrices.
func TestPropInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	done := 0
	for done < 100 {
		a := randSmallMat(r, 3)
		if a.ToRat().Det().Sign() == 0 {
			continue
		}
		done++
		ra := a.ToRat()
		inv, err := ra.Inverse()
		if err != nil {
			t.Fatalf("unexpected inverse error for %v: %v", a, err)
		}
		if !ra.Mul(inv).equal(RatIdentity(3)) || !inv.Mul(ra).equal(RatIdentity(3)) {
			t.Fatalf("A·A⁻¹ != I for A=%v", a)
		}
	}
}

// TestPropDetInverseReciprocal checks det(A⁻¹) = 1/det(A).
func TestPropDetInverseReciprocal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	done := 0
	for done < 100 {
		a := randSmallMat(r, 3)
		if a.ToRat().Det().Sign() == 0 {
			continue
		}
		done++
		ra := a.ToRat()
		inv, err := ra.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if inv.Det() != ra.Det().Inv() {
			t.Fatalf("det(A⁻¹) != 1/det(A) for A=%v", a)
		}
	}
}

func TestRatMatMulVec(t *testing.T) {
	h := RatDiag(NewRat(1, 4), NewRat(1, 2))
	got := h.MulVec(V(10, 5))
	if got[0] != NewRat(5, 2) || got[1] != NewRat(5, 2) {
		t.Errorf("MulVec = %v", got)
	}
}
