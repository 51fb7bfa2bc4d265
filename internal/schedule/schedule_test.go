package schedule

import (
	"fmt"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

func TestNonOverlapping(t *testing.T) {
	l := NonOverlapping(3)
	if !l.Pi.Equal(ilmath.V(1, 1, 1)) {
		t.Errorf("Pi = %v", l.Pi)
	}
}

func TestOverlapping(t *testing.T) {
	l, err := Overlapping(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Pi.Equal(ilmath.V(2, 2, 1)) {
		t.Errorf("Pi = %v", l.Pi)
	}
	if _, err := Overlapping(3, 3); err == nil {
		t.Error("out-of-range mapDim accepted")
	}
	if _, err := Overlapping(3, -1); err == nil {
		t.Error("negative mapDim accepted")
	}
}

func TestDispAndValid(t *testing.T) {
	u := deps.Unit(2)
	no := NonOverlapping(2)
	if d, _ := no.Disp(u); d != 1 {
		t.Errorf("Disp = %d, want 1", d)
	}
	ov, _ := Overlapping(2, 0)
	if d, _ := ov.Disp(u); d != 1 {
		t.Errorf("overlap Disp = %d, want 1 (along mapping dim)", d)
	}
	// Π=(1,-1) is invalid for dependence (0,1).
	bad := &Linear{Pi: ilmath.V(1, -1)}
	if d, _ := bad.Disp(u); d >= 1 {
		t.Errorf("Π=(1,-1) has Disp %d on unit deps, want < 1 (invalid)", d)
	}
	// Dimension mismatch.
	if _, err := no.Disp(deps.Unit(3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestTimeExample1NonOverlap(t *testing.T) {
	// Paper Example 1: tiled space [0..999]x[0..99], Π=(1,1),
	// P = 999 + 99 + 1 = 1099.
	ts := space.MustNew(ilmath.V(0, 0), ilmath.V(999, 99))
	u := deps.Unit(2)
	no := NonOverlapping(2)
	p, err := no.Length(ts, u)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1099 {
		t.Errorf("schedule length = %d, want 1099 (paper Example 1)", p)
	}
	// First and last steps.
	if tt, _ := no.Time(ilmath.V(0, 0), ts, u); tt != 0 {
		t.Errorf("Time(origin) = %d", tt)
	}
	if tt, _ := no.Time(ilmath.V(999, 99), ts, u); tt != 1098 {
		t.Errorf("Time(last) = %d", tt)
	}
}

func TestTimeExample3Overlap(t *testing.T) {
	// Paper Example 3: same tiled space, Π=(1,2) (mapping along dim 0),
	// P = 999 + 2·99 + 1 = 1198.
	ts := space.MustNew(ilmath.V(0, 0), ilmath.V(999, 99))
	u := deps.Unit(2)
	ov, err := Overlapping(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Pi.Equal(ilmath.V(1, 2)) {
		t.Fatalf("Pi = %v, want (1,2)", ov.Pi)
	}
	p, err := ov.Length(ts, u)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1198 {
		t.Errorf("schedule length = %d, want 1198 (paper Example 3)", p)
	}
}

func TestOverlapLengthFormulaPaper(t *testing.T) {
	// Section 4: P(g) = 2u₁+2u₂+…+u_map+…+2u_n + 1 for 0-based tile space.
	// Fig 12, experiment i: tile space 4x4x(16384/444 -> 37 complete),
	// here we just check the formula on a 4x4x37 example: mapping dim 2,
	// P = 2·3 + 2·3 + 36 + 1 = 49.
	ts := space.MustRect(4, 4, 37)
	u := deps.Unit(3)
	ov, _ := Overlapping(3, 2)
	p, err := ov.Length(ts, u)
	if err != nil {
		t.Fatal(err)
	}
	if p != 49 {
		t.Errorf("P = %d, want 49", p)
	}
}

func TestTimeInvalidSchedule(t *testing.T) {
	bad := &Linear{Pi: ilmath.V(0, 0)}
	ts := space.MustRect(3, 3)
	if _, err := bad.Time(ilmath.V(0, 0), ts, deps.Unit(2)); err == nil {
		t.Error("Time with disp 0 did not error")
	}
	if _, err := bad.Length(ts, deps.Unit(2)); err == nil {
		t.Error("Length with disp 0 did not error")
	}
}

func TestNegativeBoundsT0(t *testing.T) {
	ts := space.MustNew(ilmath.V(-3, -2), ilmath.V(3, 2))
	no := NonOverlapping(2)
	if t0 := no.T0(ts); t0 != 5 {
		t.Errorf("T0 = %d, want 5", t0)
	}
	// Earliest point gets step 0.
	if tt, _ := no.Time(ilmath.V(-3, -2), ts, deps.Unit(2)); tt != 0 {
		t.Errorf("Time(min corner) = %d, want 0", tt)
	}
}

// TestCausality: for every dependence d and every tile j, the producer j−d
// must be scheduled strictly earlier. This is the fundamental correctness
// property of both schedules.
func TestCausality(t *testing.T) {
	ts := space.MustRect(5, 4, 3)
	u := deps.Unit(3)
	schedules := map[string]*Linear{
		"nonoverlap": NonOverlapping(3),
	}
	for m := 0; m < 3; m++ {
		ov, _ := Overlapping(3, m)
		schedules["overlap-map"+string(rune('0'+m))] = ov
	}
	for name, l := range schedules {
		ts.Points(func(j ilmath.Vec) bool {
			tj, err := l.Time(j, ts, u)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < u.Len(); k++ {
				prev := j.Sub(u.At(k))
				if !ts.Contains(prev) {
					continue
				}
				tp, _ := l.Time(prev, ts, u)
				if tp >= tj {
					t.Fatalf("%s: causality violated: t(%v)=%d !< t(%v)=%d", name, prev, tp, j, tj)
				}
			}
			return true
		})
	}
}

// TestOverlapCrossProcessorGap: under the overlapping schedule, dependences
// that cross processors (non-mapping dimensions) must leave a gap of ≥ 2
// steps so that the send (one step) and receive (next step) fit; dependences
// along the mapping dimension need only 1 step (no communication).
func TestOverlapCrossProcessorGap(t *testing.T) {
	ts := space.MustRect(4, 4, 8)
	u := deps.Unit(3)
	mapDim := 2
	ov, _ := Overlapping(3, mapDim)
	ts.Points(func(j ilmath.Vec) bool {
		tj, _ := ov.Time(j, ts, u)
		for k := 0; k < u.Len(); k++ {
			d := u.At(k)
			prev := j.Sub(d)
			if !ts.Contains(prev) {
				continue
			}
			tp, _ := ov.Time(prev, ts, u)
			gap := tj - tp
			if d[mapDim] == 1 && gap != 1 {
				t.Fatalf("same-processor gap = %d, want 1", gap)
			}
			if d[mapDim] == 0 && gap < 2 {
				t.Fatalf("cross-processor gap = %d, want >= 2", gap)
			}
		}
		return true
	})
}

func TestMappingBasics(t *testing.T) {
	ts := space.MustRect(4, 4, 37)
	m, err := NewMapping(ts, ts.LargestDim())
	if err != nil {
		t.Fatal(err)
	}
	if m.MapDim != 2 {
		t.Errorf("MapDim = %d, want 2", m.MapDim)
	}
	if m.NumProcs() != 16 {
		t.Errorf("NumProcs = %d, want 16", m.NumProcs())
	}
	if m.TilesPerProc() != 37 {
		t.Errorf("TilesPerProc = %d, want 37", m.TilesPerProc())
	}
	tc := ilmath.V(2, 3, 11)
	if !m.ProcCoord(tc).Equal(ilmath.V(2, 3)) {
		t.Errorf("ProcCoord = %v", m.ProcCoord(tc))
	}
}

func TestMappingRanksAreBijective(t *testing.T) {
	ts := space.MustRect(3, 5, 7)
	m, err := NewMapping(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumProcs() != 21 {
		t.Fatalf("NumProcs = %d, want 21", m.NumProcs())
	}
	seen := make(map[int64]ilmath.Vec)
	ts.Points(func(tc ilmath.Vec) bool {
		r := m.ProcSpace.Linearize(m.ProcCoord(tc))
		if r < 0 || r >= m.NumProcs() {
			t.Fatalf("rank %d out of range", r)
		}
		if prev, ok := seen[r]; ok {
			// Same rank must mean same processor coordinate.
			if !m.ProcCoord(tc).Equal(m.ProcCoord(prev)) {
				t.Fatalf("rank collision between %v and %v", tc, prev)
			}
		} else {
			seen[r] = tc.Clone()
		}
		return true
	})
	if int64(len(seen)) != m.NumProcs() {
		t.Errorf("only %d ranks used, want %d", len(seen), m.NumProcs())
	}
}

func TestMapping1D(t *testing.T) {
	ts := space.MustRect(9)
	m, err := NewMapping(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumProcs() != 1 {
		t.Errorf("NumProcs = %d, want 1 for 1-D space", m.NumProcs())
	}
	if m.ProcSpace.Linearize(m.ProcCoord(ilmath.V(5))) != 0 {
		t.Error("rank of 1-D tile should be 0")
	}
}

func TestMappingErrors(t *testing.T) {
	ts := space.MustRect(3, 3)
	if _, err := NewMapping(ts, 2); err == nil {
		t.Error("out-of-range mapDim accepted")
	}
	m, _ := NewMapping(ts, 0)
	defer func() {
		if recover() == nil {
			t.Error("ProcCoord with wrong dimension did not panic")
		}
	}()
	m.ProcCoord(ilmath.V(0, 0, 0))
}

func TestMappingNegativeLowerBounds(t *testing.T) {
	ts := space.MustNew(ilmath.V(-2, 0), ilmath.V(2, 9))
	m, err := NewMapping(ts, ts.LargestDim())
	if err != nil {
		t.Fatal(err)
	}
	if m.MapDim != 1 {
		t.Fatalf("MapDim = %d", m.MapDim)
	}
	if got := m.ProcCoord(ilmath.V(-2, 0)); !got.Equal(ilmath.V(-2)) {
		t.Errorf("ProcCoord = %v, want (-2)", got)
	}
	if got := m.ProcSpace.Linearize(ilmath.V(-2)); got != 0 {
		t.Errorf("rank of the lowest processor = %d, want 0", got)
	}
}

func TestFloorDivSchedule(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3}, {0, 3, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// ProcCoord returns the processor coordinates of tile tc (tile coordinates
// with the mapping dimension projected out).
func (m *Mapping) ProcCoord(tc ilmath.Vec) ilmath.Vec {
	if len(tc) != m.TileSpace.Dim() {
		panic(fmt.Sprintf("schedule: tile coordinate dimension %d != %d", len(tc), m.TileSpace.Dim()))
	}
	if m.TileSpace.Dim() == 1 {
		return ilmath.V(0)
	}
	pc := make(ilmath.Vec, 0, len(tc)-1)
	for i, x := range tc {
		if i == m.MapDim {
			continue
		}
		pc = append(pc, x)
	}
	return pc
}
