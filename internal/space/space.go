package space

import (
	"fmt"
	"strings"

	"repro/internal/ilmath"
)

// Space is an n-dimensional rectangular (parallelepiped) iteration space
// with inclusive lower and upper bounds per dimension.
type Space struct {
	Lower ilmath.Vec // l_i, inclusive
	Upper ilmath.Vec // u_i, inclusive
}

// New constructs a Space from inclusive bounds. It returns an error if the
// dimensions disagree or any dimension is empty (l_i > u_i).
func New(lower, upper ilmath.Vec) (*Space, error) {
	if len(lower) != len(upper) {
		return nil, fmt.Errorf("space: bound dimension mismatch %d vs %d", len(lower), len(upper))
	}
	if len(lower) == 0 {
		return nil, fmt.Errorf("space: zero-dimensional space")
	}
	for i := range lower {
		if lower[i] > upper[i] {
			return nil, fmt.Errorf("space: empty dimension %d: [%d, %d]", i, lower[i], upper[i])
		}
	}
	return &Space{Lower: lower.Clone(), Upper: upper.Clone()}, nil
}

// MustNew is New but panics on error, for tests and literals.
func MustNew(lower, upper ilmath.Vec) *Space {
	s, err := New(lower, upper)
	if err != nil {
		panic(err)
	}
	return s
}

// Rect constructs the space {0..size_1-1} × … × {0..size_n-1}, the common
// zero-based loop nest FOR i_d = 0 TO size_d - 1.
func Rect(sizes ...int64) (*Space, error) {
	lo := ilmath.NewVec(len(sizes))
	up := make(ilmath.Vec, len(sizes))
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("space: non-positive extent %d in dimension %d", s, i)
		}
		up[i] = s - 1
	}
	return New(lo, up)
}

// MustRect is Rect but panics on error.
func MustRect(sizes ...int64) *Space {
	s, err := Rect(sizes...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of nested loops n.
func (s *Space) Dim() int { return len(s.Lower) }

// Extent returns the number of points along dimension d: u_d − l_d + 1.
func (s *Space) Extent(d int) int64 { return s.Upper[d] - s.Lower[d] + 1 }

// Extents returns all per-dimension extents.
func (s *Space) Extents() ilmath.Vec {
	e := make(ilmath.Vec, s.Dim())
	for d := range e {
		e[d] = s.Extent(d)
	}
	return e
}

// Volume returns the total number of index points |J^n|.
func (s *Space) Volume() int64 {
	v := int64(1)
	for d := 0; d < s.Dim(); d++ {
		v *= s.Extent(d)
	}
	return v
}

// Contains reports whether point j lies inside the space.
func (s *Space) Contains(j ilmath.Vec) bool {
	if len(j) != s.Dim() {
		return false
	}
	for d := range j {
		if j[d] < s.Lower[d] || j[d] > s.Upper[d] {
			return false
		}
	}
	return true
}

// Linearize maps a point to its rank in lexicographic order, in [0, Volume).
// It panics if j is outside the space.
func (s *Space) Linearize(j ilmath.Vec) int64 {
	if !s.Contains(j) {
		panic(fmt.Sprintf("space: point %v outside %v", j, s))
	}
	var r int64
	for d := 0; d < s.Dim(); d++ {
		r = r*s.Extent(d) + (j[d] - s.Lower[d])
	}
	return r
}

// Delinearize is the inverse of Linearize. It panics if rank is out of range.
func (s *Space) Delinearize(rank int64) ilmath.Vec {
	if rank < 0 || rank >= s.Volume() {
		panic(fmt.Sprintf("space: rank %d out of range [0, %d)", rank, s.Volume()))
	}
	j := make(ilmath.Vec, s.Dim())
	for d := s.Dim() - 1; d >= 0; d-- {
		e := s.Extent(d)
		j[d] = s.Lower[d] + rank%e
		rank /= e
	}
	return j
}

// Points returns an iterator over all points in lexicographic order.
// The yielded vector is reused between iterations; clone it to retain it.
func (s *Space) Points(yield func(ilmath.Vec) bool) {
	j := s.Lower.Clone()
	for {
		if !yield(j) {
			return
		}
		// Advance odometer-style from the innermost dimension.
		d := s.Dim() - 1
		for d >= 0 {
			j[d]++
			if j[d] <= s.Upper[d] {
				break
			}
			j[d] = s.Lower[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// LargestDim returns the index of the dimension with the largest extent
// (first one on ties). The paper maps tiles to processors along this
// dimension in the tiled space.
func (s *Space) LargestDim() int {
	return s.Extents().ArgMax()
}

// Equal reports whether two spaces have identical bounds.
func (s *Space) Equal(o *Space) bool {
	return s.Lower.Equal(o.Lower) && s.Upper.Equal(o.Upper)
}

// String renders the space as "[l1..u1]x[l2..u2]...".
func (s *Space) String() string {
	var b strings.Builder
	for d := 0; d < s.Dim(); d++ {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%d..%d]", s.Lower[d], s.Upper[d])
	}
	return b.String()
}
