package tiling

import (
	"testing"

	"repro/internal/ilmath"
	"repro/internal/space"
)

func FuzzApplyReconstruction(f *testing.F) {
	f.Add(int64(10), int64(10), int64(25), int64(37))
	f.Add(int64(3), int64(7), int64(-5), int64(100))
	f.Add(int64(1), int64(1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, s1, s2, j1, j2 int64) {
		s1, s2 = s1%50, s2%50
		if s1 <= 0 || s2 <= 0 {
			t.Skip()
		}
		j1, j2 = j1%10000, j2%10000
		tl := MustRectangular(s1, s2)
		j := ilmath.V(j1, j2)
		off := offsetIn(j, tl.tileOf(j), ilmath.V(s1, s2))
		if off[0] < 0 || off[0] >= s1 || off[1] < 0 || off[1] >= s2 {
			t.Fatalf("offset %v outside tile", off)
		}
	})
}

func FuzzTileSpacePartition(f *testing.F) {
	f.Add(int64(13), int64(7), int64(5), int64(3))
	f.Add(int64(4), int64(4), int64(4), int64(4))
	f.Add(int64(9), int64(2), int64(10), int64(1))
	f.Fuzz(func(t *testing.T, e1, e2, s1, s2 int64) {
		e1, e2, s1, s2 = e1%20, e2%20, s1%8, s2%8
		if e1 <= 0 || e2 <= 0 || s1 <= 0 || s2 <= 0 {
			t.Skip()
		}
		sp := space.MustRect(e1, e2)
		tl := MustRectangular(s1, s2)
		ts, err := tl.TileSpace(sp)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		ts.Points(func(tc ilmath.Vec) bool {
			sub, err := tl.TileIterations(sp, tc)
			if err != nil {
				t.Fatal(err)
			}
			if sub == nil {
				t.Fatalf("empty tile %v inside tile space", tc)
			}
			total += sub.Volume()
			return true
		})
		if total != sp.Volume() {
			t.Fatalf("tiles cover %d of %d points", total, sp.Volume())
		}
	})
}
