package ilmath

import "fmt"

// Rat is an exact rational number p/q with q > 0 and gcd(|p|, q) = 1.
// The zero value is 0/1? No: the zero value has Q == 0 and is invalid;
// construct values with NewRat, RatInt, or the arithmetic methods.
type Rat struct {
	P int64 // numerator
	Q int64 // denominator, always > 0 after normalization
}

// NewRat returns the normalized rational p/q. It panics if q == 0.
func NewRat(p, q int64) Rat {
	if q == 0 {
		panic("ilmath: rational with zero denominator")
	}
	if q < 0 {
		p, q = subChecked(0, p), subChecked(0, q)
	}
	if p == 0 {
		return Rat{0, 1}
	}
	g := Gcd(p, q)
	return Rat{p / g, q / g}
}

// RatInt returns the rational n/1.
func RatInt(n int64) Rat { return Rat{n, 1} }

// RatZero and RatOne are the constants 0 and 1.
var (
	RatZero = Rat{0, 1}
	RatOne  = Rat{1, 1}
)

// valid panics if r is an uninitialized (zero-denominator) value.
func (r Rat) valid() {
	if r.Q == 0 {
		panic("ilmath: use of uninitialized Rat (zero denominator)")
	}
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	r.valid()
	s.valid()
	// r.P/r.Q + s.P/s.Q = (r.P·(L/r.Q) + s.P·(L/s.Q)) / L with L = lcm.
	l := Lcm(r.Q, s.Q)
	a := mulChecked(r.P, l/r.Q)
	b := mulChecked(s.P, l/s.Q)
	return NewRat(addChecked(a, b), l)
}

// Sub returns r − s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns −r.
func (r Rat) Neg() Rat {
	r.valid()
	return Rat{subChecked(0, r.P), r.Q}
}

// Mul returns r·s.
func (r Rat) Mul(s Rat) Rat {
	r.valid()
	s.valid()
	// Cross-reduce before multiplying to keep intermediates small.
	g1 := Gcd(r.P, s.Q)
	g2 := Gcd(s.P, r.Q)
	if g1 == 0 {
		g1 = 1
	}
	if g2 == 0 {
		g2 = 1
	}
	p := mulChecked(r.P/g1, s.P/g2)
	q := mulChecked(r.Q/g2, s.Q/g1)
	return NewRat(p, q)
}

// Div returns r/s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	s.valid()
	if s.P == 0 {
		panic("ilmath: division by zero rational")
	}
	return r.Mul(Rat{s.Q, s.P}.normalizeSign())
}

func (r Rat) normalizeSign() Rat {
	if r.Q < 0 {
		return Rat{subChecked(0, r.P), subChecked(0, r.Q)}
	}
	return r
}

// Inv returns 1/r. It panics if r is zero.
func (r Rat) Inv() Rat { return RatOne.Div(r) }

// Cmp compares r and s, returning −1, 0 or +1.
func (r Rat) Cmp(s Rat) int {
	d := r.Sub(s)
	switch {
	case d.P < 0:
		return -1
	case d.P > 0:
		return 1
	default:
		return 0
	}
}

// Sign returns the sign of r: −1, 0 or +1.
func (r Rat) Sign() int {
	r.valid()
	switch {
	case r.P < 0:
		return -1
	case r.P > 0:
		return 1
	default:
		return 0
	}
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool {
	r.valid()
	return r.Q == 1
}

// Int returns the integer value of r. It panics if r is not an integer.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("ilmath: %v is not an integer", r))
	}
	return r.P
}

// Floor returns ⌊r⌋, the greatest integer ≤ r.
func (r Rat) Floor() int64 {
	r.valid()
	q := r.P / r.Q
	if r.P%r.Q != 0 && r.P < 0 {
		q--
	}
	return q
}

// Ceil returns ⌈r⌉, the least integer ≥ r.
func (r Rat) Ceil() int64 {
	r.valid()
	q := r.P / r.Q
	if r.P%r.Q != 0 && r.P > 0 {
		q++
	}
	return q
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.Sign() < 0 {
		return r.Neg()
	}
	return r
}

// String renders r as "p/q", or just "p" when r is an integer.
func (r Rat) String() string {
	if r.Q == 1 {
		return fmt.Sprintf("%d", r.P)
	}
	return fmt.Sprintf("%d/%d", r.P, r.Q)
}
