package stencil

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

func TestSqrt3DSmall(t *testing.T) {
	// With boundary 1 everywhere, A(0,0,0) = 3·√1 = 3.
	s := space.MustRect(2, 2, 2)
	g, err := RunSequential(s, Sqrt3D{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.At(ilmath.V(0, 0, 0)); got != 3 {
		t.Errorf("A(0,0,0) = %g, want 3", got)
	}
	// A(1,0,0) = √3 + √1 + √1 = √3 + 2.
	want := math.Sqrt(3) + 2
	if got := g.At(ilmath.V(1, 0, 0)); math.Abs(got-want) > 1e-12 {
		t.Errorf("A(1,0,0) = %g, want %g", got, want)
	}
	// A(1,1,1) depends on three interior values; just check positivity and
	// monotone growth along the diagonal.
	if g.At(ilmath.V(1, 1, 1)) <= g.At(ilmath.V(0, 0, 0)) {
		t.Error("values not growing along the diagonal")
	}
}

func TestSum2DExample1Kernel(t *testing.T) {
	// Boundary 0: A(0,0) = 0; boundary 1: A(0,0) = 3, A(1,1) =
	// A(0,0)+A(0,1)+A(1,0).
	s := space.MustRect(2, 2)
	g, err := RunSequential(s, Sum2D{}, ConstBoundary(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(ilmath.V(0, 0)) != 3 {
		t.Errorf("A(0,0) = %g, want 3", g.At(ilmath.V(0, 0)))
	}
	a01 := g.At(ilmath.V(0, 1)) // = A(-1,0)+A(-1,1)+A(0,0) = 1+1+3 = 5
	if a01 != 5 {
		t.Errorf("A(0,1) = %g, want 5", a01)
	}
	a10 := g.At(ilmath.V(1, 0)) // = 1+3+1 = 5
	if a10 != 5 {
		t.Errorf("A(1,0) = %g, want 5", a10)
	}
	want := 3.0 + 5 + 5
	if g.At(ilmath.V(1, 1)) != want {
		t.Errorf("A(1,1) = %g, want %g", g.At(ilmath.V(1, 1)), want)
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted("w", nil, nil, false); err == nil {
		t.Error("nil deps accepted")
	}
	if _, err := NewWeighted("w", deps.Unit(2), []float64{1}, false); err == nil {
		t.Error("weight count mismatch accepted")
	}
	w, err := NewWeighted("w", deps.Unit(2), []float64{2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "w" || w.Deps().Len() != 2 {
		t.Error("accessors wrong")
	}
}

func TestWeightedEval(t *testing.T) {
	w, _ := NewWeighted("lin", deps.Unit(2), []float64{2, 3}, false)
	s := space.MustRect(2, 2)
	g, err := RunSequential(s, w, ConstBoundary(1))
	if err != nil {
		t.Fatal(err)
	}
	// A(0,0) = 2·1 + 3·1 = 5; A(1,0) = 2·5+3·1 = 13; A(0,1) = 2+15 = 17;
	// A(1,1) = 2·17+3·13 = 73.
	cases := map[string]struct {
		j    ilmath.Vec
		want float64
	}{
		"origin": {ilmath.V(0, 0), 5},
		"i":      {ilmath.V(1, 0), 13},
		"j":      {ilmath.V(0, 1), 17},
		"both":   {ilmath.V(1, 1), 73},
	}
	for name, c := range cases {
		if got := g.At(c.j); got != c.want {
			t.Errorf("%s: A(%v) = %g, want %g", name, c.j, got, c.want)
		}
	}
}

func TestWeightedSqrt(t *testing.T) {
	// Weighted with sqrt and unit weights must reproduce Sqrt3D exactly.
	w, _ := NewWeighted("sqrt3d-generic", deps.Stencil3D(), []float64{1, 1, 1}, true)
	s := space.MustRect(3, 3, 3)
	a, err := RunSequential(s, Sqrt3D{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(s, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("generic sqrt kernel differs from Sqrt3D by %g", d)
	}
}

func TestRunSequentialDimensionMismatch(t *testing.T) {
	if _, err := RunSequential(space.MustRect(2, 2), Sqrt3D{}, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewGrid(space.MustRect(2, 3))
	g.Set(ilmath.V(1, 2), 7)
	if g.At(ilmath.V(1, 2)) != 7 {
		t.Error("Set/At wrong")
	}
	if len(g.Data) != 6 {
		t.Errorf("data length %d", len(g.Data))
	}
}

func TestMaxAbsDiff(t *testing.T) {
	s := space.MustRect(2, 2)
	a, b := NewGrid(s), NewGrid(s)
	b.Set(ilmath.V(1, 1), -0.5)
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 {
		t.Errorf("diff = %g, want 0.5", d)
	}
	if _, err := MaxAbsDiff(a, NewGrid(space.MustRect(3, 3))); err == nil {
		t.Error("space mismatch accepted")
	}
}

// TestMaxAbsDiffNonFinite: a NaN or an infinity that does not match bit for
// bit is never a zero difference; one that does is.
func TestMaxAbsDiffNonFinite(t *testing.T) {
	nan, negNaN, inf := math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1)
	for _, c := range []struct {
		name string
		x, y float64
		want float64
	}{
		{"NaN vs number", nan, 0, inf},
		{"number vs NaN", 2, nan, inf},
		{"NaN vs the same NaN", nan, nan, 0},
		{"NaN vs another NaN", nan, negNaN, inf},
		{"NaN vs Inf", nan, inf, inf},
		{"Inf vs Inf", inf, inf, 0},
		{"-Inf vs -Inf", -inf, -inf, 0},
		{"Inf vs -Inf", inf, -inf, inf},
		{"Inf vs number", inf, 1, inf},
	} {
		s := space.MustRect(2)
		a, b := NewGrid(s), NewGrid(s)
		a.Data[1], b.Data[1] = c.x, c.y
		a.Data[0], b.Data[0] = 1, 1.25 // a finite difference alongside
		want := math.Max(c.want, 0.25)
		if d, err := MaxAbsDiff(a, b); err != nil || d != want {
			t.Errorf("%s: diff = %v, %v; want %v", c.name, d, err, want)
		}
	}
}

// TestSequentialDeterministic: two runs produce identical grids.
func TestSequentialDeterministic(t *testing.T) {
	s := space.MustRect(8, 8, 8)
	a, _ := RunSequential(s, Sqrt3D{}, nil)
	b, _ := RunSequential(s, Sqrt3D{}, nil)
	d, _ := MaxAbsDiff(a, b)
	if d != 0 {
		t.Error("sequential run not deterministic")
	}
}

// TestBoundaryInfluence: boundary value changes must propagate.
func TestBoundaryInfluence(t *testing.T) {
	s := space.MustRect(4, 4, 4)
	a, _ := RunSequential(s, Sqrt3D{}, ConstBoundary(1))
	b, _ := RunSequential(s, Sqrt3D{}, ConstBoundary(4))
	d, _ := MaxAbsDiff(a, b)
	if d == 0 {
		t.Error("boundary value had no effect")
	}
}

// TestSqrt3DSweepBlockMatchesEval runs the block method alone on a padded
// array whose i = −1, j = −1 and k = −1 planes hold a position-dependent
// boundary, and compares every point with Eval driven over the same data.
// The box is embedded with slack on every side (and poisoned with NaN
// outside the ghost planes) so a stray read or write shows. The shapes cover
// every row count modulo the group of eight and two whole groups, boxes too
// short to group, k-extents on both sides of the group width and of the
// chunk length, and one box at the k-pitch of a timed run's ring (129: the
// k−1 ghost and 128 slots, runner's ringSlots for V = 128 along K = 2048;
// the box is two k short of that tile, which leaves the slack).
func TestSqrt3DSweepBlockMatchesEval(t *testing.T) {
	vec := func(i, j, k int) ilmath.Vec { return ilmath.V(int64(i), int64(j), int64(k)) }
	unvec := func(q ilmath.Vec) (i, j, k int) { return int(q[0]), int(q[1]), int(q[2]) }
	for _, ni := range []int{1, 3} {
		for nj := 1; nj <= 17; nj++ {
			for _, nk := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 256, 257, 515} {
				t.Run(fmt.Sprintf("%dx%dx%d", ni, nj, nk), func(t *testing.T) {
					sweepBlockMatchesEval(t, Sqrt3D{}, ni, nj, nk, nk+3, vec, unvec)
				})
			}
		}
	}
	t.Run("ring pitch", func(t *testing.T) {
		sweepBlockMatchesEval(t, Sqrt3D{}, 3, 17, 126, 129, vec, unvec)
	})
}

// TestSum2DSweepBlockMatchesEval is the same for the 2-D kernel, swept the
// way its contract says: one i-row, dimension 0 along k, dimension 1 along j.
// Its ghost shell is the j = −1 column and the k = −1 row, corner included
// (the diagonal dependence reads it); the i = −1 plane stays poisoned.
func TestSum2DSweepBlockMatchesEval(t *testing.T) {
	sweepBlockMatchesEval(t, Sum2D{}, 1, 4, 5, 8,
		func(i, j, k int) ilmath.Vec { return ilmath.V(int64(k), int64(j)) },
		func(q ilmath.Vec) (i, j, k int) { return 0, int(q[1]), int(q[0]) })
}

// sweepBlockMatchesEval checks kern's SweepBlock against its Eval on an
// ni×nj×nk box laid out at k-row pitch sj ≥ nk+3, so that slack follows
// every row; vec and its inverse say which kernel-space point a box point
// is.
func sweepBlockMatchesEval(t *testing.T, kern Kernel, ni, nj, nk, sj int, vec func(i, j, k int) ilmath.Vec, unvec func(ilmath.Vec) (i, j, k int)) {
	si := (nj + 2) * sj // i-plane pitch
	base := si + sj + 2 // where point (0,0,0) lives
	at := func(i, j, k int) int { return base + i*si + j*sj + k }
	boundary := func(i, j, k int) float64 { return 1 + float64(i+1) + 0.25*float64(j+1) + 0.0625*float64(k+1) }
	lowI := -1
	if kern.Deps().Dim() == 2 {
		lowI = 0 // nothing of a 2-D kernel's reaches across i
	}

	a := make([]float64, base+ni*si)
	for x := range a {
		a[x] = math.NaN()
	}
	for i := lowI; i < ni; i++ {
		for j := -1; j < nj; j++ {
			for k := -1; k < nk; k++ {
				if i < 0 || j < 0 || k < 0 {
					a[at(i, j, k)] = boundary(i, j, k)
				}
			}
		}
	}
	want := append([]float64(nil), a...)
	get := func(q ilmath.Vec) float64 { return want[at(unvec(q))] }
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				want[at(i, j, k)] = kern.Eval(vec(i, j, k), get)
			}
		}
	}

	blk, ok := kern.(Block3D)
	if !ok {
		t.Fatalf("%s does not offer the block path", kern.Name())
	}
	blk.SweepBlock(a, base, ni, nj, nk, si, sj)
	for x := range a {
		if math.Float64bits(a[x]) != math.Float64bits(want[x]) {
			t.Fatalf("offset %d: block path %v, Eval %v", x, a[x], want[x])
		}
	}
	if v := a[at(ni-1, nj-1, nk-1)]; math.IsNaN(v) || v <= 0 {
		t.Errorf("last point = %v: a poisoned cell was read", v)
	}
}
