package ilmath

import (
	"fmt"
	"strings"
)

// RatMat is a dense matrix of exact rationals, used to represent tiling
// matrices H (whose entries are reciprocals of tile side lengths) and their
// inverses P = H⁻¹.
type RatMat struct {
	Rows, Cols int
	a          []Rat
}

// NewRatMat returns a zero Rows×Cols rational matrix.
func NewRatMat(rows, cols int) *RatMat {
	if rows < 0 || cols < 0 {
		panic("ilmath: negative matrix dimension")
	}
	m := &RatMat{Rows: rows, Cols: cols, a: make([]Rat, rows*cols)}
	for i := range m.a {
		m.a[i] = RatZero
	}
	return m
}

// RatIdentity returns the n×n rational identity matrix.
func RatIdentity(n int) *RatMat {
	m := NewRatMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, RatOne)
	}
	return m
}

// RatDiag returns the square diagonal rational matrix with diagonal d.
func RatDiag(d ...Rat) *RatMat {
	m := NewRatMat(len(d), len(d))
	for i, x := range d {
		m.Set(i, i, x)
	}
	return m
}

// At returns the element at row i, column j.
func (m *RatMat) At(i, j int) Rat {
	m.check(i, j)
	return m.a[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *RatMat) Set(i, j int, v Rat) {
	m.check(i, j)
	v.valid()
	m.a[i*m.Cols+j] = v
}

func (m *RatMat) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("ilmath: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Clone returns an independent copy of m.
func (m *RatMat) Clone() *RatMat {
	n := NewRatMat(m.Rows, m.Cols)
	copy(n.a, m.a)
	return n
}

// Mul returns the matrix product m·n.
func (m *RatMat) Mul(n *RatMat) *RatMat {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("ilmath: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewRatMat(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			s := RatZero
			for k := 0; k < m.Cols; k++ {
				s = s.Add(m.At(i, k).Mul(n.At(k, j)))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// MulIntMat returns m·n where n is an integer matrix.
func (m *RatMat) MulIntMat(n *Mat) *RatMat { return m.Mul(n.ToRat()) }

// MulVec returns the matrix-vector product m·v for an integer vector v.
func (m *RatMat) MulVec(v Vec) []Rat {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("ilmath: cannot multiply %dx%d by vector of dim %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]Rat, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := RatZero
		for k := 0; k < m.Cols; k++ {
			s = s.Add(m.At(i, k).Mul(RatInt(v[k])))
		}
		out[i] = s
	}
	return out
}

// Det returns the determinant of a square rational matrix via Gaussian
// elimination with exact rational arithmetic.
func (m *RatMat) Det() Rat {
	if m.Rows != m.Cols {
		panic("ilmath: determinant of non-square matrix")
	}
	n := m.Rows
	if n == 0 {
		return RatOne
	}
	w := m.Clone()
	det := RatOne
	for k := 0; k < n; k++ {
		// Pivot.
		p := -1
		for i := k; i < n; i++ {
			if w.At(i, k).Sign() != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			return RatZero
		}
		if p != k {
			w.swapRows(k, p)
			det = det.Neg()
		}
		piv := w.At(k, k)
		det = det.Mul(piv)
		for i := k + 1; i < n; i++ {
			f := w.At(i, k).Div(piv)
			if f.Sign() == 0 {
				continue
			}
			for j := k; j < n; j++ {
				w.Set(i, j, w.At(i, j).Sub(f.Mul(w.At(k, j))))
			}
		}
	}
	return det
}

// Inverse returns m⁻¹ computed by Gauss–Jordan elimination with exact
// rational arithmetic. It returns an error if m is singular or non-square.
func (m *RatMat) Inverse() (*RatMat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("ilmath: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	w := m.Clone()
	inv := RatIdentity(n)
	for k := 0; k < n; k++ {
		p := -1
		for i := k; i < n; i++ {
			if w.At(i, k).Sign() != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			return nil, fmt.Errorf("ilmath: singular matrix (rank deficiency at column %d)", k)
		}
		if p != k {
			w.swapRows(k, p)
			inv.swapRows(k, p)
		}
		piv := w.At(k, k).Inv()
		for j := 0; j < n; j++ {
			w.Set(k, j, w.At(k, j).Mul(piv))
			inv.Set(k, j, inv.At(k, j).Mul(piv))
		}
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			f := w.At(i, k)
			if f.Sign() == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				w.Set(i, j, w.At(i, j).Sub(f.Mul(w.At(k, j))))
				inv.Set(i, j, inv.At(i, j).Sub(f.Mul(inv.At(k, j))))
			}
		}
	}
	return inv, nil
}

func (m *RatMat) swapRows(i, j int) {
	ri := m.a[i*m.Cols : (i+1)*m.Cols]
	rj := m.a[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// FloorVec returns ⌊m·v⌋ applied componentwise, the core operation of the
// supernode transformation j ↦ ⌊Hj⌋.
func (m *RatMat) FloorVec(v Vec) Vec {
	rv := m.MulVec(v)
	out := make(Vec, len(rv))
	for i, r := range rv {
		out[i] = r.Floor()
	}
	return out
}

// String renders the matrix one row per line.
func (m *RatMat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.At(i, j).String())
		}
		b.WriteByte(']')
		if i < m.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
