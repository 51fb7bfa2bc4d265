package topo

import "testing"

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
		ok   bool
	}{
		{"flat", Spec{}, true},
		{"two-level", TwoLevel(32, 4, 5e-6, 2), true},
		{"fat-tree", FatTree(16, 8, 2, 4, 5e-6, 2), true},
		{"negative-levels", Spec{Levels: -1}, false},
		{"too-deep", Spec{Levels: MaxLevels + 1}, false},
		{"radix-1", TwoLevel(1, 4, 0, 1), false},
		{"zero-bw", TwoLevel(8, 0, 0, 1), false},
		{"negative-latency", TwoLevel(8, 1, -1, 1), false},
		{"zero-uplinks", TwoLevel(8, 1, 0, 0), false},
		{"junk-beyond-levels", Spec{Levels: 1, L: [MaxLevels]Level{
			{Radix: 8, BW: 1, Uplinks: 1}, {Radix: 4}}}, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRouting(t *testing.T) {
	s := FatTree(4, 2, 2, 4, 1e-6, 2) // 4 nodes/edge, 2 edges/agg
	if g := s.GroupSize(0); g != 4 {
		t.Errorf("GroupSize(0) = %d, want 4", g)
	}
	if g := s.GroupSize(1); g != 8 {
		t.Errorf("GroupSize(1) = %d, want 8", g)
	}
	if n := s.Switches(0, 10); n != 3 {
		t.Errorf("Switches(0, 10) = %d, want 3 (last partially populated)", n)
	}
	if n := s.Switches(1, 10); n != 2 {
		t.Errorf("Switches(1, 10) = %d, want 2", n)
	}
	cases := []struct {
		a, b int64
		lvl  int
	}{
		{0, 3, 0}, // same edge switch
		{0, 4, 1}, // same aggregation switch, different edge
		{0, 8, 2}, // different aggregation: across the core
		{5, 6, 0},
		{7, 8, 2},
	}
	for _, c := range cases {
		if got := s.CommonLevel(c.a, c.b); got != c.lvl {
			t.Errorf("CommonLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.lvl)
		}
	}
}

func TestUplinkIndexDeterministicAndSpread(t *testing.T) {
	s := TwoLevel(8, 4, 0, 4)
	seen := map[int]int{}
	for from := int64(0); from < 32; from++ {
		for to := int64(0); to < 32; to++ {
			i := s.UplinkIndex(0, from, to)
			if i < 0 || i >= 4 {
				t.Fatalf("UplinkIndex out of range: %d", i)
			}
			if j := s.UplinkIndex(0, from, to); j != i {
				t.Fatalf("UplinkIndex not deterministic: %d then %d", i, j)
			}
			seen[i]++
		}
	}
	if len(seen) != 4 {
		t.Errorf("flows used %d of 4 uplinks; want all 4 (got %v)", len(seen), seen)
	}
}

func TestSpecComparable(t *testing.T) {
	a := TwoLevel(32, 4, 5e-6, 2)
	b := TwoLevel(32, 4, 5e-6, 2)
	if a != b {
		t.Error("identical specs compare unequal")
	}
	if a == (Spec{}) {
		t.Error("hierarchical spec compares equal to flat")
	}
	// Usable as a map key (the property the sim cache relies on).
	m := map[Spec]int{a: 1, Spec{}: 2}
	if m[b] != 1 {
		t.Error("spec map lookup failed")
	}
}

func TestString(t *testing.T) {
	if got := (Spec{}).String(); got != "flat" {
		t.Errorf("Spec{}.String() = %q", got)
	}
	if got := TwoLevel(32, 4, 5e-6, 2).String(); got != "radix32×bw4×2" {
		t.Errorf("TwoLevel String() = %q", got)
	}
}
