package ilmath

import (
	"errors"
	"fmt"
	"strings"
)

// ErrOverflow is returned (or wrapped) when an exact integer operation would
// exceed the int64 range.
var ErrOverflow = errors.New("ilmath: integer overflow")

// Vec is a dense integer vector.
type Vec []int64

// NewVec returns a zero vector of dimension n.
func NewVec(n int) Vec {
	return make(Vec, n)
}

// V is a convenience constructor building a vector from its components.
func V(xs ...int64) Vec {
	v := make(Vec, len(xs))
	copy(v, xs)
	return v
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Dim returns the dimension (number of components) of v.
func (v Vec) Dim() int { return len(v) }

// Equal reports whether v and w have the same dimension and components.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every component of v is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Sub returns v − w. It panics if dimensions differ.
func (v Vec) Sub(w Vec) Vec {
	mustSameDim(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = subChecked(v[i], w[i])
	}
	return out
}

// Dot returns the inner product v·w. It panics if dimensions differ.
func (v Vec) Dot(w Vec) int64 {
	mustSameDim(len(v), len(w))
	var s int64
	for i := range v {
		s = addChecked(s, mulChecked(v[i], w[i]))
	}
	return s
}

// ArgMax returns the index of the first maximum component of v.
func (v Vec) ArgMax() int {
	if len(v) == 0 {
		panic("ilmath: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// IsNonNegative reports whether every component of v is ≥ 0.
func (v Vec) IsNonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// LexPositive reports whether v is lexicographically positive: its first
// nonzero component is positive. The zero vector is not lexicographically
// positive.
func (v Vec) LexPositive() bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
		if x < 0 {
			return false
		}
	}
	return false
}

// String renders v as "(x1, x2, …, xn)".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(')')
	return b.String()
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("ilmath: dimension mismatch %d vs %d", a, b))
	}
}

// addChecked returns a+b, panicking with ErrOverflow on int64 overflow.
func addChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		panic(fmt.Errorf("%w: %d + %d", ErrOverflow, a, b))
	}
	return s
}

func subChecked(a, b int64) int64 {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		panic(fmt.Errorf("%w: %d - %d", ErrOverflow, a, b))
	}
	return d
}

func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		panic(fmt.Errorf("%w: %d * %d", ErrOverflow, a, b))
	}
	return p
}
