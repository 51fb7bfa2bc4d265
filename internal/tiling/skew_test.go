package tiling

import (
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

// wavefrontDeps is the classic SOR/wavefront dependence set with a negative
// component, not tileable rectangularly.
func wavefrontDeps() *deps.Set {
	return deps.MustNewSet(ilmath.V(1, -1), ilmath.V(1, 0), ilmath.V(1, 1))
}

// skewedTiling is the parallelepiped tiling H = diag(1/s1, 1/s2)·S of the
// wavefront set, with the unimodular skew S = [[1, 0], [1, 1]] that makes
// S·D ≥ 0 (Irigoin–Triolet), written out as a literal H.
func skewedTiling(t *testing.T, s1, s2 int64) *Tiling {
	t.Helper()
	h := ilmath.NewRatMat(2, 2)
	h.Set(0, 0, ilmath.NewRat(1, s1))
	h.Set(1, 0, ilmath.NewRat(1, s2))
	h.Set(1, 1, ilmath.NewRat(1, s2))
	tl, err := FromH(h)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestSkewedRectangularLegal(t *testing.T) {
	d := wavefrontDeps()
	// Rectangular tiling is illegal for this set…
	if MustRectangular(4, 4).Legal(d) {
		t.Fatal("rectangular tiling should be illegal for wavefront deps")
	}
	// …but the skewed tiling is legal by construction.
	tl := skewedTiling(t, 4, 4)
	if !tl.Legal(d) {
		t.Error("skewed tiling not legal")
	}
	if tl.IsRectangular() {
		t.Error("skewed tiling should not be axis-aligned")
	}
	// Tile volume is preserved: |det P| = s1·s2 (unimodular skew).
	if tl.VolumeInt() != 16 {
		t.Errorf("volume = %d, want 16", tl.VolumeInt())
	}
	if !tl.ContainsDeps(d) {
		t.Error("4x4 skewed tiles should contain the unit-length deps")
	}
}

func TestSkewedTileDeps(t *testing.T) {
	tl := skewedTiling(t, 4, 4)
	ds, err := tl.TileDeps(wavefrontDeps())
	if err != nil {
		t.Fatal(err)
	}
	// All tiled deps must be 0/1 vectors.
	for _, v := range ds.Vectors() {
		for _, x := range v {
			if x != 0 && x != 1 {
				t.Fatalf("tiled dep %v not 0/1", v)
			}
		}
	}
}

func TestTilePointsPartitionSkewed(t *testing.T) {
	// Every point of the space belongs to exactly one non-empty tile, and
	// the tile point counts sum to the space volume.
	sp := space.MustRect(12, 9)
	tl := skewedTiling(t, 3, 3)
	tiles, err := tl.NonEmptyTiles(sp)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	seen := map[string]bool{}
	for _, tc := range tiles {
		n, err := tl.TilePoints(sp, tc, func(j ilmath.Vec) {
			k := j.String()
			if seen[k] {
				t.Fatalf("point %v in two tiles", j)
			}
			seen[k] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("NonEmptyTiles returned empty tile %v", tc)
		}
		total += n
	}
	if total != sp.Volume() {
		t.Errorf("tiles cover %d points, space has %d", total, sp.Volume())
	}
}

func TestTilePointsMatchesRectangularFastPath(t *testing.T) {
	sp := space.MustRect(13, 7)
	tl := MustRectangular(5, 3)
	ts, err := tl.TileSpace(sp)
	if err != nil {
		t.Fatal(err)
	}
	ts.Points(func(tc ilmath.Vec) bool {
		slow, err := tl.TilePoints(sp, tc, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tl.TileIterations(sp, tc)
		if err != nil {
			t.Fatal(err)
		}
		var fast int64
		if sub != nil {
			fast = sub.Volume()
		}
		if slow != fast {
			t.Fatalf("tile %v: general count %d != rectangular %d", tc, slow, fast)
		}
		return true
	})
}

func TestNonEmptyTilesRectangularEqualsTileSpace(t *testing.T) {
	sp := space.MustRect(10, 10)
	tl := MustRectangular(4, 4)
	tiles, err := tl.NonEmptyTiles(sp)
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := tl.TileSpace(sp)
	if int64(len(tiles)) != ts.Volume() {
		t.Errorf("non-empty tiles %d != tile space volume %d", len(tiles), ts.Volume())
	}
}

func TestSkewedCommVolume(t *testing.T) {
	// Communication volume of the skewed tiling is computable and positive.
	tl := skewedTiling(t, 4, 4)
	v, err := tl.CommVolume(wavefrontDeps())
	if err != nil {
		t.Fatal(err)
	}
	if v.Sign() <= 0 {
		t.Errorf("V_comm = %v", v)
	}
	// And the exact decomposition does not exceed it.
	vols, err := tl.TileDepVolumes(wavefrontDeps())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, x := range vols {
		total += x.Points
	}
	if ilmath.RatInt(total).Cmp(v) > 0 {
		t.Errorf("exact %d exceeds formula (1) %v", total, v)
	}
}
