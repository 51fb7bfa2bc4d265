package ilmath

import (
	"fmt"
	"strings"
)

// Mat is a dense integer matrix stored in row-major order.
type Mat struct {
	Rows, Cols int
	a          []int64
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("ilmath: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, a: make([]int64, rows*cols)}
}

// MatFromCols builds a matrix whose columns are the given vectors.
func MatFromCols(cols ...Vec) *Mat {
	if len(cols) == 0 {
		return NewMat(0, 0)
	}
	r := len(cols[0])
	m := NewMat(r, len(cols))
	for j, c := range cols {
		if len(c) != r {
			panic("ilmath: ragged columns in MatFromCols")
		}
		for i := 0; i < r; i++ {
			m.Set(i, j, c[i])
		}
	}
	return m
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) int64 {
	m.check(i, j)
	return m.a[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.Cols+j] = v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("ilmath: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// ToRat converts m to an exact rational matrix.
func (m *Mat) ToRat() *RatMat {
	r := NewRatMat(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			r.Set(i, j, RatInt(m.At(i, j)))
		}
	}
	return r
}

// String renders the matrix one row per line.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte(']')
		if i < m.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
