package tiling

import (
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

func TestRectangularConstruction(t *testing.T) {
	tl := MustRectangular(10, 10)
	if tl.Dim() != 2 {
		t.Fatalf("Dim = %d", tl.Dim())
	}
	if tl.VolumeInt() != 100 {
		t.Errorf("Volume = %d, want 100", tl.VolumeInt())
	}
	sides := tl.Sides()
	if !sides.Equal(ilmath.V(10, 10)) {
		t.Errorf("Sides = %v", sides)
	}
	sides[0] = 99
	if tl.VolumeInt() != 100 {
		t.Error("Sides leaks internal storage")
	}
	if _, err := Rectangular(); err == nil {
		t.Error("empty sides accepted")
	}
	if _, err := Rectangular(0, 5); err == nil {
		t.Error("zero side accepted")
	}
	if _, err := Rectangular(-3); err == nil {
		t.Error("negative side accepted")
	}
	if _, err := Rectangular(1<<32, 1<<31); err == nil {
		t.Error("sides whose volume overflows int64 accepted")
	}
}

func TestTileOfAndApply(t *testing.T) {
	tl := MustRectangular(10, 10)
	cases := []struct {
		j, tile, off ilmath.Vec
	}{
		{ilmath.V(0, 0), ilmath.V(0, 0), ilmath.V(0, 0)},
		{ilmath.V(9, 9), ilmath.V(0, 0), ilmath.V(9, 9)},
		{ilmath.V(10, 0), ilmath.V(1, 0), ilmath.V(0, 0)},
		{ilmath.V(25, 37), ilmath.V(2, 3), ilmath.V(5, 7)},
		{ilmath.V(-1, -1), ilmath.V(-1, -1), ilmath.V(9, 9)},
	}
	for _, c := range cases {
		tile := tl.tileOf(c.j)
		if off := offsetIn(c.j, tile, ilmath.V(10, 10)); !tile.Equal(c.tile) || !off.Equal(c.off) {
			t.Errorf("tileOf(%v) = %v, offset %v; want %v, %v", c.j, tile, off, c.tile, c.off)
		}
	}
}

// offsetIn returns j − P·tile, the offset of j inside its tile under the
// rectangular tiling with the given sides.
func offsetIn(j, tile, sides ilmath.Vec) ilmath.Vec {
	off := make(ilmath.Vec, len(j))
	for d := range j {
		off[d] = j[d] - tile[d]*sides[d]
	}
	return off
}

func TestApplyReconstruction(t *testing.T) {
	// j − P·tileOf(j) must lie inside the tile for rectangular tilings.
	tl := MustRectangular(7, 3, 5)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		j := ilmath.V(r.Int63n(100)-50, r.Int63n(100)-50, r.Int63n(100)-50)
		sides := ilmath.V(7, 3, 5)
		tile := tl.tileOf(j)
		off := offsetIn(j, tile, sides)
		for d := 0; d < 3; d++ {
			if off[d] < 0 || off[d] >= sides[d] {
				t.Fatalf("offset %v out of tile range for %v", off, j)
			}
		}
	}
}

func TestLegality(t *testing.T) {
	d := deps.Example1Deps()
	if !MustRectangular(10, 10).Legal(d) {
		t.Error("rectangular tiling should be legal for non-negative deps")
	}
	// A dependence with a negative component gives H·d a negative entry
	// for every box H = diag(1/s): no rectangular tiling is legal.
	if MustRectangular(4, 4).Legal(deps.MustNewSet(ilmath.V(1, -1), ilmath.V(0, 1))) {
		t.Error("rectangular tiling should be illegal for D containing (1,-1)")
	}
	// Dimension mismatch is simply not legal.
	if MustRectangular(4).Legal(d) {
		t.Error("dimension mismatch reported legal")
	}
}

func TestContainsDeps(t *testing.T) {
	d := deps.Example1Deps()
	if !MustRectangular(10, 10).ContainsDeps(d) {
		t.Error("10x10 tiles should contain unit-ish deps")
	}
	if MustRectangular(1, 1).ContainsDeps(d) {
		t.Error("1x1 tiles cannot contain deps of length 1 (H·d = 1 not < 1)")
	}
	if !MustRectangular(2, 2).ContainsDeps(d) {
		t.Error("2x2 tiles should contain deps with max component 1")
	}
}

func TestTileDepsRectangular(t *testing.T) {
	d := deps.Example1Deps()
	ds, err := MustRectangular(4, 4).TileDeps(d)
	if err != nil {
		t.Fatal(err)
	}
	// Expect exactly {(0,1),(1,0),(1,1)}: boundary points generate all three.
	if ds.Len() != 3 {
		t.Fatalf("TileDeps = %v, want 3 vectors", ds)
	}
	for _, want := range []ilmath.Vec{ilmath.V(0, 1), ilmath.V(1, 0), ilmath.V(1, 1)} {
		if !hasVec(ds, want) {
			t.Errorf("TileDeps missing %v: %v", want, ds)
		}
	}
}

func TestTileDeps3DStencil(t *testing.T) {
	d := deps.Stencil3D()
	ds, err := MustRectangular(4, 4, 4).TileDeps(d)
	if err != nil {
		t.Fatal(err)
	}
	// Axis-aligned unit deps tile to exactly the three unit vectors: no
	// diagonal tile dependences arise.
	if ds.Len() != 3 {
		t.Fatalf("TileDeps = %v, want 3 unit vectors", ds)
	}
	for _, want := range []ilmath.Vec{ilmath.V(1, 0, 0), ilmath.V(0, 1, 0), ilmath.V(0, 0, 1)} {
		if !hasVec(ds, want) {
			t.Errorf("TileDeps missing %v", want)
		}
	}
}

func TestTileDepsErrors(t *testing.T) {
	d := deps.Example1Deps()
	if _, err := MustRectangular(1, 1).TileDeps(d); err == nil {
		t.Error("TileDeps accepted deps not contained in tile")
	}
	// Illegal tiling: a negative dependence component.
	if _, err := MustRectangular(10, 10).TileDeps(deps.MustNewSet(ilmath.V(1, -1))); err == nil {
		t.Error("TileDeps accepted illegal tiling")
	}
}

func TestCommVolumeExample1(t *testing.T) {
	// Paper, Example 1: 10x10 tiles, D = {(1,1),(1,0),(0,1)}.
	// Formula (1): V_comm = 100 · (0.1+0.1+0 + 0.1+0+0.1) = 40.
	// Formula (2) with mapping along dim 0: V_comm = 100 · (0.1+0+0.1) = 20.
	tl := MustRectangular(10, 10)
	d := deps.Example1Deps()
	v1, err := tl.CommVolume(d)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 40 {
		t.Errorf("CommVolume = %v, want 40", v1)
	}
	v2, err := tl.CommVolumeMapped(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 20 {
		t.Errorf("CommVolumeMapped = %v, want 20 (paper Example 1)", v2)
	}
}

func TestCommVolumeMappedErrors(t *testing.T) {
	tl := MustRectangular(10, 10)
	d := deps.Example1Deps()
	if _, err := tl.CommVolumeMapped(d, -1); err == nil {
		t.Error("negative mapDim accepted")
	}
	if _, err := tl.CommVolumeMapped(d, 2); err == nil {
		t.Error("out-of-range mapDim accepted")
	}
}

func TestRowCommVolume(t *testing.T) {
	tl := MustRectangular(10, 10)
	d := deps.Example1Deps()
	rows, err := tl.RowCommVolume(d)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != 20 || rows[1] != 20 {
		t.Errorf("RowCommVolume = %v, want [20 20]", rows)
	}
	// Sum of rows equals formula (1).
	total, _ := tl.CommVolume(d)
	if rows[0]+rows[1] != total {
		t.Error("row volumes do not sum to total")
	}
}

func TestCommVolume3DFaces(t *testing.T) {
	// 4x4xV tile against unit 3-D deps: each face passes s_j·s_k points.
	tl := MustRectangular(4, 4, 16)
	rows, err := tl.RowCommVolume(deps.Stencil3D())
	if err != nil {
		t.Fatal(err)
	}
	// face sizes: i-face = 4*16, j-face = 4*16, k-face = 4*4.
	want := []int64{64, 64, 16}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d comm = %v, want %d", i, rows[i], w)
		}
	}
}

func TestOptimalRectSidesSquareForSymmetricDeps(t *testing.T) {
	// Example 1: r = (2,2), g = 100 -> square 10x10 is optimal.
	sides, err := OptimalRectSides(deps.Example1Deps(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !sides.Equal(ilmath.V(10, 10)) {
		t.Errorf("OptimalRectSides = %v, want (10, 10)", sides)
	}
}

func TestOptimalRectSidesAsymmetric(t *testing.T) {
	// D = {(1,0)} only: communication crosses only dim-0 boundaries, so all
	// the volume should go to s_0.
	d := deps.MustNewSet(ilmath.V(1, 0))
	sides, err := OptimalRectSides(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sides[0] != 64 || sides[1] != 1 {
		t.Errorf("OptimalRectSides = %v, want (64, 1)", sides)
	}
}

func TestOptimalRectSidesErrors(t *testing.T) {
	if _, err := OptimalRectSides(deps.Example1Deps(), 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := OptimalRectSides(deps.MustNewSet(ilmath.V(1, -1)), 10); err == nil {
		t.Error("negative dependence accepted for rectangular shape")
	}
}

func TestOptimalRectSidesRespectsBudget(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		g := r.Int63n(500) + 1
		d := deps.MustNewSet(
			ilmath.V(1+r.Int63n(3), r.Int63n(3)),
			ilmath.V(r.Int63n(2), 1+r.Int63n(3)),
		)
		sides, err := OptimalRectSides(d, g)
		if err != nil {
			t.Fatal(err)
		}
		vol := sides[0] * sides[1]
		if vol > g || vol < 1 {
			t.Fatalf("sides %v volume %d exceeds budget %d", sides, vol, g)
		}
	}
}

func TestTileSpaceExample1(t *testing.T) {
	// Example 1: J = [0..9999]x[0..999], 10x10 tiles ->
	// J^S = [0..999]x[0..99].
	s := space.MustRect(10000, 1000)
	ts, err := MustRectangular(10, 10).TileSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Lower.Equal(ilmath.V(0, 0)) || !ts.Upper.Equal(ilmath.V(999, 99)) {
		t.Errorf("TileSpace = %v, want [0..999]x[0..99]", ts)
	}
}

func TestTileSpaceNegativeBounds(t *testing.T) {
	s := space.MustNew(ilmath.V(-5, -5), ilmath.V(5, 5))
	ts, err := MustRectangular(3, 3).TileSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	// floor(-5/3) = -2, floor(5/3) = 1.
	if !ts.Lower.Equal(ilmath.V(-2, -2)) || !ts.Upper.Equal(ilmath.V(1, 1)) {
		t.Errorf("TileSpace = %v", ts)
	}
}

func TestTileSpaceEveryPointMapsInside(t *testing.T) {
	s := space.MustRect(23, 17)
	tl := MustRectangular(5, 4)
	ts, err := tl.TileSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Points(func(j ilmath.Vec) bool {
		if !ts.Contains(tl.tileOf(j)) {
			t.Fatalf("tile %v of point %v outside tile space %v", tl.tileOf(j), j, ts)
		}
		return true
	})
	// And every tile in the tile space is non-empty.
	ts.Points(func(tc ilmath.Vec) bool {
		sub, err := tl.TileIterations(s, tc)
		if err != nil {
			t.Fatal(err)
		}
		if sub == nil {
			t.Fatalf("tile %v in tile space is empty", tc)
		}
		return true
	})
}

func TestTileIterationsClipping(t *testing.T) {
	s := space.MustRect(10, 10) // [0..9]^2
	tl := MustRectangular(4, 4)
	full, err := tl.TileIterations(s, ilmath.V(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if full.Volume() != 16 {
		t.Errorf("interior tile volume %d, want 16", full.Volume())
	}
	edge, err := tl.TileIterations(s, ilmath.V(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Tile [8..11]^2 clipped to [8..9]^2: volume 4.
	if edge.Volume() != 4 {
		t.Errorf("boundary tile volume %d, want 4", edge.Volume())
	}
	outside, err := tl.TileIterations(s, ilmath.V(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if outside != nil {
		t.Error("tile outside space should be nil")
	}
}

func TestTileIterationsPartitionSpace(t *testing.T) {
	// The tiles must partition the iteration space exactly: total clipped
	// volume equals |J^n| and every point belongs to exactly one tile.
	s := space.MustRect(13, 7)
	tl := MustRectangular(5, 3)
	ts, err := tl.TileSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	ts.Points(func(tc ilmath.Vec) bool {
		sub, err := tl.TileIterations(s, tc)
		if err != nil {
			t.Fatal(err)
		}
		if sub != nil {
			total += sub.Volume()
		}
		return true
	})
	if total != s.Volume() {
		t.Errorf("tiles cover %d points, space has %d", total, s.Volume())
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestPropTileOfConsistentWithApply checks that j − P·tileOf(j) lies inside
// the tile for random rectangular tilings.
func TestPropTileOfConsistentWithApply(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		s1, s2 := r.Int63n(9)+1, r.Int63n(9)+1
		tl := MustRectangular(s1, s2)
		j := ilmath.V(r.Int63n(200)-100, r.Int63n(200)-100)
		off := offsetIn(j, tl.tileOf(j), ilmath.V(s1, s2))
		if off[0] < 0 || off[0] >= s1 || off[1] < 0 || off[1] >= s2 {
			t.Fatalf("offset %v outside tile (%d,%d)", off, s1, s2)
		}
	}
}

// hasVec reports whether v is one of the vectors of d.
func hasVec(d *deps.Set, v ilmath.Vec) bool {
	for _, w := range d.Vectors() {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// tileOf returns ⌊Hj⌋ = ⌊j/s⌋, the coordinates of the tile containing
// index point j.
func (t *Tiling) tileOf(j ilmath.Vec) ilmath.Vec {
	tc := make(ilmath.Vec, len(j))
	for i, x := range j {
		tc[i] = floorDiv(x, t.sides[i])
	}
	return tc
}
