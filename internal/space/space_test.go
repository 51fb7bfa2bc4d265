package space

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ilmath"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(ilmath.V(0, 0), ilmath.V(1)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := New(ilmath.V(), ilmath.V()); err == nil {
		t.Error("zero-dimensional space accepted")
	}
	if _, err := New(ilmath.V(5), ilmath.V(3)); err == nil {
		t.Error("empty dimension accepted")
	}
	if _, err := New(ilmath.V(-3, 0), ilmath.V(3, 0)); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
}

func TestRect(t *testing.T) {
	s, err := Rect(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Lower.Equal(ilmath.V(0, 0)) || !s.Upper.Equal(ilmath.V(9, 4)) {
		t.Errorf("Rect bounds wrong: %v", s)
	}
	if _, err := Rect(10, 0); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := Rect(10, -2); err == nil {
		t.Error("negative extent accepted")
	}
}

func TestExtentVolume(t *testing.T) {
	s := MustNew(ilmath.V(-2, 1), ilmath.V(2, 3))
	if s.Extent(0) != 5 || s.Extent(1) != 3 {
		t.Errorf("Extents = %v", s.Extents())
	}
	if s.Volume() != 15 {
		t.Errorf("Volume = %d, want 15", s.Volume())
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func TestContains(t *testing.T) {
	s := MustRect(4, 4)
	cases := []struct {
		j    ilmath.Vec
		want bool
	}{
		{ilmath.V(0, 0), true},
		{ilmath.V(3, 3), true},
		{ilmath.V(4, 0), false},
		{ilmath.V(0, -1), false},
		{ilmath.V(0), false}, // wrong dimension
	}
	for _, c := range cases {
		if got := s.Contains(c.j); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.j, got, c.want)
		}
	}
}

func TestLinearizeRoundTrip(t *testing.T) {
	s := MustNew(ilmath.V(-1, 2, 0), ilmath.V(1, 4, 2))
	for r := int64(0); r < s.Volume(); r++ {
		j := s.Delinearize(r)
		if got := s.Linearize(j); got != r {
			t.Fatalf("round trip failed: rank %d -> %v -> %d", r, j, got)
		}
	}
}

func TestLinearizeLexOrder(t *testing.T) {
	s := MustRect(3, 4)
	prev := int64(-1)
	count := 0
	s.Points(func(j ilmath.Vec) bool {
		r := s.Linearize(j)
		if r != prev+1 {
			t.Fatalf("points not visited in lexicographic rank order: %v has rank %d after %d", j, r, prev)
		}
		prev = r
		count++
		return true
	})
	if int64(count) != s.Volume() {
		t.Errorf("visited %d points, want %d", count, s.Volume())
	}
}

func TestPointsEarlyStop(t *testing.T) {
	s := MustRect(10, 10)
	n := 0
	s.Points(func(j ilmath.Vec) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

func TestLargestDim(t *testing.T) {
	if d := MustRect(16, 16, 16384).LargestDim(); d != 2 {
		t.Errorf("LargestDim = %d, want 2", d)
	}
	if d := MustRect(10000, 1000).LargestDim(); d != 0 {
		t.Errorf("LargestDim = %d, want 0", d)
	}
	// Tie: first wins.
	if d := MustRect(5, 5).LargestDim(); d != 0 {
		t.Errorf("LargestDim tie = %d, want 0", d)
	}
}

func TestLinearizeOutsidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linearize outside did not panic")
		}
	}()
	MustRect(2, 2).Linearize(ilmath.V(5, 0))
}

func TestDelinearizeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Delinearize out of range did not panic")
		}
	}()
	MustRect(2, 2).Delinearize(4)
}

func TestEqualString(t *testing.T) {
	a := MustNew(ilmath.V(0, 1), ilmath.V(2, 3))
	b := MustNew(ilmath.V(0, 1), ilmath.V(2, 3))
	if !a.Equal(b) {
		t.Error("Equal false for identical spaces")
	}
	if a.Equal(MustRect(3, 3)) {
		t.Error("Equal true for different spaces")
	}
	if a.String() != "[0..2]x[1..3]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestPropLinearizeBijective(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ea, eb, ec := int64(a%5)+1, int64(b%5)+1, int64(c%5)+1
		s := MustRect(ea, eb, ec)
		seen := make(map[int64]bool)
		ok := true
		s.Points(func(j ilmath.Vec) bool {
			r := s.Linearize(j)
			if seen[r] || r < 0 || r >= s.Volume() {
				ok = false
				return false
			}
			seen[r] = true
			return true
		})
		return ok && int64(len(seen)) == s.Volume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropDelinearizeContains(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		s := MustNew(
			ilmath.V(int64(r.Intn(10)-5), int64(r.Intn(10)-5)),
			ilmath.V(int64(r.Intn(10)+5), int64(r.Intn(10)+5)),
		)
		rank := r.Int63n(s.Volume())
		if !s.Contains(s.Delinearize(rank)) {
			t.Fatalf("Delinearize(%d) outside %v", rank, s)
		}
	}
}
