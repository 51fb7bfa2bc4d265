package tiling

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

// The differential test below checks every box-tiling query against a
// point-by-point brute force that uses nothing but floorDiv on each
// coordinate: random small spaces (with non-zero and negative lower
// bounds), random sides and random dependence sets in one to three
// dimensions.

// randBox returns a random space of dimension n with lower bounds in
// [-7, 7] and extents in [1, 12].
func randBox(r *rand.Rand, n int) *space.Space {
	lo := make(ilmath.Vec, n)
	up := make(ilmath.Vec, n)
	for i := range lo {
		lo[i] = r.Int63n(15) - 7
		up[i] = lo[i] + r.Int63n(12)
	}
	return space.MustNew(lo, up)
}

// randContained returns a random set of one to three nonzero dependences
// with 0 ≤ d_i < s_i; some side must exceed 1.
func randContained(r *rand.Rand, sides ilmath.Vec) *deps.Set {
	var vecs []ilmath.Vec
	for m := 1 + r.Intn(3); len(vecs) < m; {
		v := make(ilmath.Vec, len(sides))
		for i, s := range sides {
			v[i] = r.Int63n(s)
		}
		if !v.IsZero() {
			vecs = append(vecs, v)
		}
	}
	return deps.MustNewSet(vecs...)
}

// addVec returns j + d.
func addVec(j, d ilmath.Vec) ilmath.Vec {
	out := j.Clone()
	for i := range d {
		out[i] += d[i]
	}
	return out
}

// bruteTileOf is ⌊j/s⌋ componentwise.
func bruteTileOf(j, sides ilmath.Vec) ilmath.Vec {
	tc := make(ilmath.Vec, len(j))
	for i := range j {
		tc[i] = floorDiv(j[i], sides[i])
	}
	return tc
}

// firstTile lists the points of [0, s) in lexicographic order, decoded from
// a mixed-radix counter rather than walked with space.Points.
func firstTile(sides ilmath.Vec) []ilmath.Vec {
	g := int64(1)
	for _, s := range sides {
		g *= s
	}
	out := make([]ilmath.Vec, 0, g)
	for k := int64(0); k < g; k++ {
		j, rest := make(ilmath.Vec, len(sides)), k
		for i := len(sides) - 1; i >= 0; i-- {
			j[i] = rest % sides[i]
			rest /= sides[i]
		}
		out = append(out, j)
	}
	return out
}

func TestPropBoxTilingMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(3)
		sides := make(ilmath.Vec, n)
		for i := range sides {
			sides[i] = 1 + r.Int63n(5)
		}
		tl := MustRectangular(sides...)
		sp := randBox(r, n)
		where := fmt.Sprintf("sides %v, space %v", sides, sp)

		// TileSpace and TileIterations: the tile of every point, and the
		// points of every tile in lexicographic order.
		byTile := map[string][]ilmath.Vec{}
		sp.Points(func(j ilmath.Vec) bool {
			k := bruteTileOf(j, sides).String()
			byTile[k] = append(byTile[k], j.Clone())
			return true
		})
		ts, err := tl.TileSpace(sp)
		if err != nil {
			t.Fatalf("%s: TileSpace: %v", where, err)
		}
		if ts.Volume() != int64(len(byTile)) {
			t.Fatalf("%s: TileSpace %v has %d tiles, the points fall in %d", where, ts, ts.Volume(), len(byTile))
		}
		// Walk one tile beyond the tile space on each side: those tiles
		// must come back empty.
		lo, up := ts.Lower.Clone(), ts.Upper.Clone()
		for i := range lo {
			lo[i]--
			up[i]++
		}
		space.MustNew(lo, up).Points(func(tc ilmath.Vec) bool {
			want := byTile[tc.String()]
			if (want != nil) != ts.Contains(tc) {
				t.Fatalf("%s: tile %v: in TileSpace %v = %v, holds %d points", where, tc, ts, ts.Contains(tc), len(want))
			}
			sub, err := tl.TileIterations(sp, tc)
			if err != nil {
				t.Fatalf("%s: TileIterations(%v): %v", where, tc, err)
			}
			var got []ilmath.Vec
			if sub != nil {
				sub.Points(func(j ilmath.Vec) bool {
					got = append(got, j.Clone())
					return true
				})
			}
			if !slices.EqualFunc(got, want, ilmath.Vec.Equal) {
				t.Fatalf("%s: TileIterations(%v) = %v, brute force %v", where, tc, got, want)
			}
			return true
		})

		// TileDeps, TileDepVolumes and the formula-(1) rows: the first
		// tile's distinct sources per direction, and its (point,
		// dependence) pairs per crossed surface. A 1×…×1 tile contains no
		// nonzero dependence.
		if tl.VolumeInt() == 1 {
			continue
		}
		d := randContained(r, sides)
		where += fmt.Sprintf(", deps %v", d)
		sources := map[string]map[string]bool{}
		rows := make([]int64, n)
		for _, j0 := range firstTile(sides) {
			for _, dv := range d.Vectors() {
				ds := bruteTileOf(addVec(j0, dv), sides)
				for i, x := range ds {
					rows[i] += x
				}
				if ds.IsZero() {
					continue
				}
				if sources[ds.String()] == nil {
					sources[ds.String()] = map[string]bool{}
				}
				sources[ds.String()][j0.String()] = true
			}
		}
		dirs := make([]string, 0, len(sources))
		for k := range sources {
			dirs = append(dirs, k)
		}
		sort.Strings(dirs)

		td, err := tl.TileDeps(d)
		if err != nil {
			t.Fatalf("%s: TileDeps: %v", where, err)
		}
		vols, err := tl.TileDepVolumes(d)
		if err != nil {
			t.Fatalf("%s: TileDepVolumes: %v", where, err)
		}
		if td.Len() != len(dirs) || len(vols) != len(dirs) {
			t.Fatalf("%s: TileDeps %v, TileDepVolumes %v; brute force directions %v", where, td, vols, dirs)
		}
		for i, k := range dirs {
			if td.At(i).String() != k || vols[i].Dir.String() != k || vols[i].Points != int64(len(sources[k])) {
				t.Fatalf("%s: direction %d: TileDeps %v, TileDepVolumes %v; brute force %s with %d sources",
					where, i, td.At(i), vols[i], k, len(sources[k]))
			}
		}
		gotRows, err := tl.RowCommVolume(d)
		if err != nil {
			t.Fatalf("%s: RowCommVolume: %v", where, err)
		}
		if !slices.Equal(gotRows, rows) {
			t.Fatalf("%s: RowCommVolume %v, brute force %v", where, gotRows, rows)
		}
	}

	// Tiles far too large to walk point by point: under unit dependences
	// each face direction e_i carries the product of the other sides, and
	// nothing crosses two faces at once.
	for _, sides := range []ilmath.Vec{
		ilmath.V(1<<20, 3),
		ilmath.V(1<<10, 1<<10, 2),
		ilmath.V(2048, 1024, 4096),
		ilmath.V(7, 1<<16, 5, 1<<12),
	} {
		vols, err := MustRectangular(sides...).TileDepVolumes(deps.Unit(len(sides)))
		if err != nil {
			t.Fatalf("sides %v: %v", sides, err)
		}
		if len(vols) != len(sides) {
			t.Fatalf("sides %v: %d directions %v, want %d faces", sides, len(vols), vols, len(sides))
		}
		for k, v := range vols {
			i := len(sides) - 1 - k // lexicographic order: e_{n−1} first
			want := int64(1)
			for j, s := range sides {
				if j != i {
					want *= s
				}
			}
			if !v.Dir.Equal(deps.Unit(len(sides)).At(i)) || v.Points != want {
				t.Errorf("sides %v: direction %d = %v, want e_%d with %d points", sides, k, v, i, want)
			}
		}
	}
}

// TestBoxTilingDependenceErrors pins the errors of TileDeps and
// TileDepVolumes for a negative dependence component (HD ≥ 0 fails) and for
// a component at least as long as the tile side (⌊HD⌋ ≠ 0).
func TestBoxTilingDependenceErrors(t *testing.T) {
	tl := MustRectangular(4, 3)
	for _, c := range []struct {
		d                   *deps.Set
		tileDeps, depVolume string
	}{
		{
			deps.MustNewSet(ilmath.V(1, -1), ilmath.V(0, 1)),
			"tiling: illegal for dependence set {(1, -1), (0, 1)} (HD has negative entries)",
			"tiling: illegal for {(1, -1), (0, 1)}",
		},
		{
			deps.MustNewSet(ilmath.V(1, 0), ilmath.V(0, 3)),
			"tiling: dependence set {(1, 0), (0, 3)} not contained in a tile (⌊HD⌋ ≠ 0)",
			"tiling: dependence set {(1, 0), (0, 3)} not contained in a tile",
		},
		{
			deps.MustNewSet(ilmath.V(5, 0)),
			"tiling: dependence set {(5, 0)} not contained in a tile (⌊HD⌋ ≠ 0)",
			"tiling: dependence set {(5, 0)} not contained in a tile",
		},
	} {
		if _, err := tl.TileDeps(c.d); err == nil || err.Error() != c.tileDeps {
			t.Errorf("TileDeps(%v) error = %v, want %q", c.d, err, c.tileDeps)
		}
		if _, err := tl.TileDepVolumes(c.d); err == nil || err.Error() != c.depVolume {
			t.Errorf("TileDepVolumes(%v) error = %v, want %q", c.d, err, c.depVolume)
		}
	}
}

// TestPropBoxCrossingsMatchesBruteForce checks BoxCrossings on clipped
// boxes, where a dependence may be as long as the box or longer, against
// the crossing rule applied point by point.
func TestPropBoxCrossingsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var out []Crossing
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(3)
		b := make(ilmath.Vec, n)
		for i := range b {
			b[i] = 1 + r.Int63n(5)
		}
		var vecs []ilmath.Vec
		for m := 1 + r.Intn(4); len(vecs) < m; {
			v := make(ilmath.Vec, n)
			for i := range v {
				v[i] = r.Int63n(4)
			}
			vecs = append(vecs, v)
		}
		want := map[uint64]int64{}
		for _, j0 := range firstTile(b) {
			reached := map[uint64]bool{}
			for _, d := range vecs {
				var dir uint64
				for i := range b {
					if j0[i]+d[i] >= b[i] {
						dir |= 1 << (n - 1 - i)
					}
				}
				if dir != 0 && !reached[dir] {
					reached[dir] = true
					want[dir]++
				}
			}
		}
		out = BoxCrossings(b, vecs, out)
		if len(out) != len(want) {
			t.Fatalf("box %v, deps %v: BoxCrossings %v, brute force %v", b, vecs, out, want)
		}
		for k, c := range out {
			if c.Points != want[c.Dir] || (k > 0 && out[k-1].Dir >= c.Dir) {
				t.Fatalf("box %v, deps %v: BoxCrossings %v, brute force %v", b, vecs, out, want)
			}
		}
	}
}
