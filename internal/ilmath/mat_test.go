package ilmath

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatConstructors(t *testing.T) {
	c := MatFromCols(V(1, 2), V(3, 4))
	if c.At(0, 1) != 3 || c.At(1, 0) != 2 {
		t.Errorf("MatFromCols layout wrong: %v", c)
	}
	if got := MatFromCols(); got.Rows != 0 || got.Cols != 0 {
		t.Errorf("MatFromCols() = %dx%d, want 0x0", got.Rows, got.Cols)
	}
	if got := NewMat(2, 3).String(); got != "[0 0 0]\n[0 0 0]" {
		t.Errorf("String = %q", got)
	}
}

func TestMatRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged MatFromCols did not panic")
		}
	}()
	MatFromCols(V(1, 2), V(3))
}

// TestMatDet checks the exact rational determinant of integer matrices
// with known determinants.
func TestMatDet(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int64
	}{
		{matFromRows(V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)), 1},
		{matFromRows(V(2, 0, 0), V(0, 3, 0), V(0, 0, 4)), 24},
		{matFromRows(V(1, 2), V(3, 4)), -2},
		{matFromRows(V(1, 2), V(2, 4)), 0},
		{matFromRows(V(0, 1), V(1, 0)), -1},
		{matFromRows(V(0, 2, 1), V(1, 0, 0), V(0, 0, 3)), -6},
		{matFromRows(V(2, 0, 0), V(0, 0, 5), V(0, 7, 0)), -70},
		{NewMat(0, 0), 1},
		// 4x4 with known determinant.
		{matFromRows(V(1, 0, 2, -1), V(3, 0, 0, 5), V(2, 1, 4, -3), V(1, 0, 5, 0)), 30},
	}
	for _, c := range cases {
		if got := c.m.ToRat().Det(); got != RatInt(c.want) {
			t.Errorf("Det(%v) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestMatDetNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Det of non-square did not panic")
		}
	}()
	NewRatMat(2, 3).Det()
}

func randSmallMat(r *rand.Rand, n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, int64(r.Intn(11)-5))
		}
	}
	return m
}

// TestPropDetMultiplicative checks det(AB) = det(A)det(B) on random 3x3
// integer matrices, cross-validating the rational determinant against
// itself under products.
func TestPropDetMultiplicative(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := randSmallMat(r, 3).ToRat()
		b := randSmallMat(r, 3).ToRat()
		if a.Mul(b).Det() != a.Det().Mul(b.Det()) {
			t.Fatalf("det(AB) != det(A)det(B) for\nA=%v\nB=%v", a, b)
		}
	}
}

// TestPropDetTranspose checks det(Aᵀ) = det(A): the same vectors taken as
// columns and as rows give transposed matrices.
func TestPropDetTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		vs := make([]Vec, 4)
		for j := range vs {
			vs[j] = V(int64(r.Intn(11)-5), int64(r.Intn(11)-5), int64(r.Intn(11)-5), int64(r.Intn(11)-5))
		}
		a := MatFromCols(vs...)
		if a.ToRat().Det() != matFromRows(vs...).ToRat().Det() {
			t.Fatalf("det(A) != det(Aᵀ) for A=%v", a)
		}
	}
}

// TestPropDetAgreesWithRat cross-validates the rational Gaussian
// determinant against an integer cofactor expansion.
func TestPropDetAgreesWithRat(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		a := randSmallMat(r, 4)
		ri := a.ToRat().Det()
		if !ri.IsInt() || ri.Int() != cofactorDet(a) {
			t.Fatalf("integer det %d disagrees with rational det %v for A=%v", cofactorDet(a), ri, a)
		}
	}
}

func TestPropMatMulVecLinear(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		m := matFromRows(V(small(a), small(b)), V(small(c), small(d))).ToRat()
		v := V(small(e), small(g))
		// M(2v) == 2(Mv)
		twice, once := m.MulVec(v.Add(v)), m.MulVec(v)
		for i := range once {
			if twice[i] != once[i].Add(once[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// matFromRows builds the integer matrix whose rows are the given vectors.
func matFromRows(rows ...Vec) *Mat {
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, x := range r {
			m.Set(i, j, x)
		}
	}
	return m
}

// cofactorDet is the Laplace expansion of det m along the first row: slow,
// exact and independent of RatMat.Det's elimination.
func cofactorDet(m *Mat) int64 {
	n := m.Rows
	if n == 1 {
		return m.At(0, 0)
	}
	var det, sign int64 = 0, 1
	for c := 0; c < n; c++ {
		minor := NewMat(n-1, n-1)
		for i := 1; i < n; i++ {
			for j, k := 0, 0; j < n; j++ {
				if j != c {
					minor.Set(i-1, k, m.At(i, j))
					k++
				}
			}
		}
		det += sign * m.At(0, c) * cofactorDet(minor)
		sign = -sign
	}
	return det
}

// equal reports whether m and n have identical shape and entries.
func (m *RatMat) equal(n *RatMat) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.a {
		if m.a[i].Cmp(n.a[i]) != 0 {
			return false
		}
	}
	return true
}
