package tiling

import (
	"testing"

	"repro/internal/deps"
)

func volumesByDir(t *testing.T, tl *Tiling, d *deps.Set) map[string]int64 {
	t.Helper()
	vols, err := tl.TileDepVolumes(d)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]int64, len(vols))
	for _, v := range vols {
		m[v.Dir.String()] = v.Points
	}
	return m
}

func TestTileDepVolumesExample1(t *testing.T) {
	// 10×10 tiles, D = {(1,1),(1,0),(0,1)}:
	//  - toward (1,0): the i=9 column, 10 points via (1,0); the (1,1) dep
	//    from (9, y<9) adds the same column's points already counted? No —
	//    distinct sources: (9,0..9) via (1,0) = 10 points; (1,1) from
	//    (9, 0..8) maps to (1,0) tile too, sources (9,0..8) already in the
	//    set. Total distinct: 10.
	//  - toward (0,1): symmetric, 10.
	//  - toward (1,1): only source (9,9) via dep (1,1): 1.
	m := volumesByDir(t, MustRectangular(10, 10), deps.Example1Deps())
	if m["(1, 0)"] != 10 {
		t.Errorf("(1,0) volume = %d, want 10", m["(1, 0)"])
	}
	if m["(0, 1)"] != 10 {
		t.Errorf("(0,1) volume = %d, want 10", m["(0, 1)"])
	}
	if m["(1, 1)"] != 1 {
		t.Errorf("(1,1) volume = %d, want 1", m["(1, 1)"])
	}
}

func TestTileDepVolumes3DStencil(t *testing.T) {
	// 4×4×16 tile with unit deps: faces of 4·16, 4·16, 4·4 points.
	m := volumesByDir(t, MustRectangular(4, 4, 16), deps.Stencil3D())
	if m["(1, 0, 0)"] != 64 || m["(0, 1, 0)"] != 64 || m["(0, 0, 1)"] != 16 {
		t.Errorf("face volumes = %v", m)
	}
}

// TestTileDepVolumesNotExceedFormula1: the exact total never exceeds the
// analytic V_comm of formula (1), and equals it when no dependence crosses
// more than one boundary surface.
func TestTileDepVolumesNotExceedFormula1(t *testing.T) {
	cases := []struct {
		tl *Tiling
		d  *deps.Set
	}{
		{MustRectangular(10, 10), deps.Example1Deps()},
		{MustRectangular(4, 4, 16), deps.Stencil3D()},
		{MustRectangular(3, 7), deps.Example1Deps()},
		{MustRectangular(5, 5), deps.Unit(2)},
	}
	for _, c := range cases {
		vols, err := c.tl.TileDepVolumes(c.d)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, v := range vols {
			total += v.Points
		}
		f1, err := c.tl.CommVolume(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if total > f1 {
			t.Errorf("exact total %d exceeds formula (1) %v", total, f1)
		}
	}
	// Unit deps: exact equals formula (1).
	m := volumesByDir(t, MustRectangular(5, 5), deps.Unit(2))
	if m["(1, 0)"] != 5 || m["(0, 1)"] != 5 {
		t.Errorf("unit-dep volumes wrong: %v", m)
	}
}

func TestTileDepVolumesErrors(t *testing.T) {
	if _, err := MustRectangular(1, 1).TileDepVolumes(deps.Example1Deps()); err == nil {
		t.Error("uncontained deps accepted")
	}
}
