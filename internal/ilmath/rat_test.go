package ilmath

import (
	"testing"
	"testing/quick"
)

func TestNewRatNormalization(t *testing.T) {
	cases := []struct {
		p, q         int64
		wantP, wantQ int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 7, 0, 1},
		{0, -7, 0, 1},
		{6, 3, 2, 1},
	}
	for _, c := range cases {
		r := NewRat(c.p, c.q)
		if r.P != c.wantP || r.Q != c.wantQ {
			t.Errorf("NewRat(%d,%d) = %d/%d, want %d/%d", c.p, c.q, r.P, r.Q, c.wantP, c.wantQ)
		}
	}
}

func TestNewRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRat(1,0) did not panic")
		}
	}()
	NewRat(1, 0)
}

func TestRatArithmetic(t *testing.T) {
	half := NewRat(1, 2)
	third := NewRat(1, 3)
	if got := half.Add(third); got != NewRat(5, 6) {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := half.Sub(third); got != NewRat(1, 6) {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := half.Mul(third); got != NewRat(1, 6) {
		t.Errorf("1/2*1/3 = %v", got)
	}
	if got := half.Div(third); got != NewRat(3, 2) {
		t.Errorf("(1/2)/(1/3) = %v", got)
	}
	if got := half.Neg(); got != NewRat(-1, 2) {
		t.Errorf("-1/2 = %v", got)
	}
	if got := NewRat(-3, 7).Inv(); got != NewRat(-7, 3) {
		t.Errorf("inv(-3/7) = %v", got)
	}
	if got := NewRat(-3, 7).Abs(); got != NewRat(3, 7) {
		t.Errorf("abs(-3/7) = %v", got)
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero did not panic")
		}
	}()
	RatOne.Div(RatZero)
}

func TestRatCmpSign(t *testing.T) {
	if NewRat(1, 3).Cmp(NewRat(1, 2)) != -1 {
		t.Error("1/3 should be < 1/2")
	}
	if NewRat(2, 4).Cmp(NewRat(1, 2)) != 0 {
		t.Error("2/4 should equal 1/2")
	}
	if NewRat(-1, 2).Sign() != -1 || RatZero.Sign() != 0 || RatOne.Sign() != 1 {
		t.Error("Sign wrong")
	}
}

func TestRatFloorCeil(t *testing.T) {
	cases := []struct {
		r           Rat
		floor, ceil int64
	}{
		{NewRat(7, 2), 3, 4},
		{NewRat(-7, 2), -4, -3},
		{NewRat(6, 2), 3, 3},
		{NewRat(-6, 2), -3, -3},
		{RatZero, 0, 0},
		{NewRat(1, 10), 0, 1},
		{NewRat(-1, 10), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%v) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestRatIntConversions(t *testing.T) {
	if !RatInt(5).IsInt() || RatInt(5).Int() != 5 {
		t.Error("RatInt round trip failed")
	}
	if NewRat(1, 2).IsInt() {
		t.Error("1/2 reported as integer")
	}
	defer func() {
		if recover() == nil {
			t.Error("Int() on non-integer did not panic")
		}
	}()
	NewRat(1, 2).Int()
}

func TestRatFloatString(t *testing.T) {
	if NewRat(3, 1).String() != "3" {
		t.Errorf("String(3) = %q", NewRat(3, 1).String())
	}
	if NewRat(-1, 2).String() != "-1/2" {
		t.Errorf("String(-1/2) = %q", NewRat(-1, 2).String())
	}
}

func TestUninitializedRatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arithmetic on zero-value Rat did not panic")
		}
	}()
	var r Rat
	_ = r.Add(RatOne)
}

func qr(p, q int64) Rat {
	p = p % 100
	q = q % 100
	if q == 0 {
		q = 1
	}
	return NewRat(p, q)
}

func TestPropRatAddAssociative(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		x, y, z := qr(a, b), qr(c, d), qr(e, g)
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRatMulDistributes(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		x, y, z := qr(a, b), qr(c, d), qr(e, g)
		return x.Mul(y.Add(z)) == x.Mul(y).Add(x.Mul(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRatDivMulRoundTrip(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x, y := qr(a, b), qr(c, d)
		if y.Sign() == 0 {
			return true
		}
		return x.Div(y).Mul(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropFloorCeilBracket(t *testing.T) {
	f := func(a, b int64) bool {
		r := qr(a, b)
		fl, cl := r.Floor(), r.Ceil()
		if RatInt(fl).Cmp(r) > 0 || RatInt(cl).Cmp(r) < 0 {
			return false
		}
		if r.IsInt() {
			return fl == cl
		}
		return cl == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRatNormalized(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		r := qr(a, b).Mul(qr(c, d))
		if r.Q <= 0 {
			return false
		}
		return Gcd(r.P, r.Q) == 1 || (r.P == 0 && r.Q == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
