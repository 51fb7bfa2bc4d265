package deps

import (
	"fmt"
	"strings"

	"repro/internal/ilmath"
)

// Set is an ordered collection of uniform dependence vectors of equal
// dimension.
type Set struct {
	dim  int
	vecs []ilmath.Vec
}

// NewSet validates and builds a dependence set. Every vector must have the
// same dimension, be nonzero, and be lexicographically positive (otherwise
// the sequential loop nest itself would be illegal).
func NewSet(vecs ...ilmath.Vec) (*Set, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("deps: empty dependence set")
	}
	dim := vecs[0].Dim()
	s := &Set{dim: dim, vecs: make([]ilmath.Vec, 0, len(vecs))}
	for i, d := range vecs {
		if d.Dim() != dim {
			return nil, fmt.Errorf("deps: vector %d has dimension %d, want %d", i, d.Dim(), dim)
		}
		if d.IsZero() {
			return nil, fmt.Errorf("deps: vector %d is zero", i)
		}
		if !d.LexPositive() {
			return nil, fmt.Errorf("deps: vector %d = %v is not lexicographically positive", i, d)
		}
		s.vecs = append(s.vecs, d.Clone())
	}
	return s, nil
}

// MustNewSet is NewSet but panics on error.
func MustNewSet(vecs ...ilmath.Vec) *Set {
	s, err := NewSet(vecs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the dimension n of the vectors.
func (s *Set) Dim() int { return s.dim }

// Len returns the number m of dependence vectors.
func (s *Set) Len() int { return len(s.vecs) }

// At returns a copy of the i-th dependence vector.
func (s *Set) At(i int) ilmath.Vec { return s.vecs[i].Clone() }

// Vectors returns copies of all dependence vectors in order.
func (s *Set) Vectors() []ilmath.Vec {
	out := make([]ilmath.Vec, len(s.vecs))
	for i, d := range s.vecs {
		out[i] = d.Clone()
	}
	return out
}

// MaxComponent returns, per dimension, the maximum component over all
// dependence vectors; tiles must be at least this large along each dimension
// for the unit-dependence tiled space assumption |HD| < 1 to hold.
func (s *Set) MaxComponent() ilmath.Vec {
	m := ilmath.NewVec(s.dim)
	for _, d := range s.vecs {
		for k := 0; k < s.dim; k++ {
			if d[k] > m[k] {
				m[k] = d[k]
			}
		}
	}
	return m
}

// IsNonNegative reports whether every component of every vector is ≥ 0.
// Non-negative dependence sets admit rectangular tilings of any side length.
func (s *Set) IsNonNegative() bool {
	for _, d := range s.vecs {
		if !d.IsNonNegative() {
			return false
		}
	}
	return true
}

// Unit returns the n-dimensional unit dependence set {e_1, …, e_n}, the
// dependence structure of the tiled space J^S when |HD| < 1 holds.
func Unit(n int) *Set {
	vecs := make([]ilmath.Vec, n)
	for i := range vecs {
		v := ilmath.NewVec(n)
		v[i] = 1
		vecs[i] = v
	}
	return MustNewSet(vecs...)
}

// String renders the set as "{(1, 0), (0, 1)}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range s.vecs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Common dependence sets used by the paper's examples.

// Example1Deps is D = {(1,1), (1,0), (0,1)} from the 2-D loop of Example 1.
func Example1Deps() *Set {
	return MustNewSet(ilmath.V(1, 1), ilmath.V(1, 0), ilmath.V(0, 1))
}

// Stencil3D is D = {(1,0,0), (0,1,0), (0,0,1)}, the dependence set of the
// experimental kernel A(i,j,k) = √A(i−1,j,k)+√A(i,j−1,k)+√A(i,j,k−1).
func Stencil3D() *Set {
	return MustNewSet(ilmath.V(1, 0, 0), ilmath.V(0, 1, 0), ilmath.V(0, 0, 1))
}
