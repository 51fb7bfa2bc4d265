package ilmath

import "testing"

// Fuzz targets for the exact-arithmetic core. `go test` exercises the seed
// corpus; `go test -fuzz=FuzzX` explores further.

func FuzzRatArithmetic(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(4))
	f.Add(int64(-7), int64(3), int64(0), int64(5))
	f.Add(int64(99), int64(-98), int64(-1), int64(1))
	f.Fuzz(func(t *testing.T, p1, q1, p2, q2 int64) {
		// Bound magnitudes to avoid int64 overflow panics (checked
		// elsewhere): fuzz the algebra, not the overflow guard.
		p1, q1, p2, q2 = p1%1000, q1%1000, p2%1000, q2%1000
		if q1 == 0 || q2 == 0 {
			t.Skip()
		}
		a, b := NewRat(p1, q1), NewRat(p2, q2)
		// Normalization invariants.
		for _, r := range []Rat{a, b, a.Add(b), a.Mul(b), a.Sub(b)} {
			if r.Q <= 0 {
				t.Fatalf("denominator %d not positive", r.Q)
			}
			if g := Gcd(r.P, r.Q); !(g == 1 || (r.P == 0 && r.Q == 1)) {
				t.Fatalf("%v not reduced (gcd %d)", r, g)
			}
		}
		// Algebraic identities.
		if a.Add(b).Sub(b) != a {
			t.Fatalf("(a+b)-b != a for %v, %v", a, b)
		}
		if b.Sign() != 0 && a.Div(b).Mul(b) != a {
			t.Fatalf("(a/b)*b != a for %v, %v", a, b)
		}
		// Floor/Ceil bracket the value.
		if RatInt(a.Floor()).Cmp(a) > 0 || RatInt(a.Ceil()).Cmp(a) < 0 {
			t.Fatalf("floor/ceil do not bracket %v", a)
		}
	})
}

func FuzzRatMatInverse(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(5))
	f.Add(int64(4), int64(0), int64(0), int64(4))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		a, b, c, d = a%15, b%15, c%15, d%15
		m := matFromRows(V(a, b), V(c, d))
		if m.ToRat().Det().Sign() == 0 {
			t.Skip()
		}
		rm := m.ToRat()
		inv, err := rm.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if !rm.Mul(inv).equal(RatIdentity(2)) {
			t.Fatalf("A·A⁻¹ != I for %v", m)
		}
	})
}
