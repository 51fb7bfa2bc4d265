package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/tiling"
)

// Topology is a box tiling ready to simulate: the tiled space, the
// processor mapping, every tile's volume and the messages it ships. Only
// BoxTopology builds one, and a built Topology is read-only, so one value
// may serve any number of simulations at once.
type Topology struct {
	ts *space.Space
	m  *schedule.Mapping
	// A tile's shape names the dimensions in which it is clipped: only the
	// last tile along a dimension whose side does not divide the extent
	// is. A tile's shape index is the sum of stride[i] over the dimensions
	// where its coordinate is last[i]; stride[i] is 0 where that tile is
	// full.
	last, stride []int64
	vol          []int64    // vol[shape]: the points of a tile of that shape
	cross        []crossing // the messages a tile receives, in receive order
	bytes        []int64    // bytes[shape·len(cross)+k]: cross[k]'s message from a tile of that shape
}

// crossing is one processor offset a tile's messages travel: the same step
// on the processor whose coordinates are larger by one in the crossed
// dimensions.
type crossing struct {
	dir        uint64 // the crossed dimensions, tiling.Crossing's encoding; never the mapping dimension
	rank, proc int64  // tile-rank and processor-rank distance to the sending tile
}

// BoxTopology builds the simulator's view of a box tiling: the iteration
// space [0, extents) cut into tiles with the given sides, the tiles along
// mapDim run by one processor, the point dependences d (every component
// between 0 and the tile side) and elements of bytesPerElem bytes.
//
// It ships what the real executors ship: one message per sending tile and
// destination processor. A tile sends to the neighbor whose processor
// coordinates are larger by one in some dimensions, at the same step; the
// tile directions with that processor offset (the diagonals that also
// cross the mapping dimension among them) fold into it, and the message
// carries the sum of their transfer volumes, measured on the sending
// tile's clipped box (tiling.BoxCrossings). A tile receives its messages
// with the lower crossing dimension first, the order the 3-D runner
// receives its west face before its north face.
func BoxTopology(extents, sides ilmath.Vec, mapDim int, d *deps.Set, bytesPerElem int64) (Topology, error) {
	n := len(extents)
	if n == 0 || n > tiling.MaxDim || len(sides) != n {
		return Topology{}, fmt.Errorf("sim: extents %v and tile sides %v must have one to %d dimensions each", extents, sides, tiling.MaxDim)
	}
	points := int64(1)
	for i := range extents {
		if extents[i] <= 0 || sides[i] <= 0 {
			return Topology{}, fmt.Errorf("sim: extents %v and tile sides %v must be positive", extents, sides)
		}
		if points > math.MaxInt64/extents[i] {
			return Topology{}, fmt.Errorf("sim: iteration space %v overflows int64", extents)
		}
		points *= extents[i]
	}
	if d == nil || d.Dim() != n {
		return Topology{}, fmt.Errorf("sim: dependence set missing or not of dimension %d", n)
	}
	vecs := d.Vectors()
	for _, v := range vecs {
		for i, x := range v {
			if x < 0 || x > sides[i] {
				return Topology{}, fmt.Errorf("sim: dependence %v does not stay within the neighbor tiles of sides %v", v, sides)
			}
		}
	}
	if bytesPerElem <= 0 {
		return Topology{}, fmt.Errorf("sim: non-positive element size %d", bytesPerElem)
	}
	// full is a complete tile, no larger than the space; box is the
	// scratch of a tile shape's clipped box.
	v := make(ilmath.Vec, 3*n)
	tiles, full, box := v[:n], v[n:2*n], v[2*n:]
	for i := range tiles {
		tiles[i] = (extents[i] + sides[i] - 1) / sides[i]
		full[i] = min(sides[i], extents[i])
	}
	ts, err := space.Rect(tiles...)
	if err != nil {
		return Topology{}, err
	}
	m, err := schedule.NewMapping(ts, mapDim)
	if err != nil {
		return Topology{}, err
	}

	t := Topology{ts: ts, m: m}
	ls := make([]int64, 2*n)
	t.last, t.stride = ls[:n], ls[n:]
	shapes := int64(1)
	for i := range tiles {
		t.last[i] = tiles[i] - 1
		if extents[i]%full[i] != 0 {
			t.stride[i] = shapes
			shapes *= 2
		}
	}

	// The processor offsets: a full tile reaches every direction a clipped
	// one does.
	mapBit := uint64(1) << (n - 1 - mapDim)
	cs := tiling.BoxCrossings(full, vecs, nil)
	t.cross = make([]crossing, 0, len(cs))
	for _, c := range cs {
		if off := c.Dir &^ mapBit; off != 0 && !slices.ContainsFunc(t.cross, func(x crossing) bool { return x.dir == off }) {
			t.cross = append(t.cross, crossing{dir: off})
		}
	}
	// Lower crossing dimension first: with dimension 0 the highest bit,
	// that is the larger direction first.
	slices.SortFunc(t.cross, func(x, y crossing) int { return cmp.Compare(y.dir, x.dir) })
	for k := range t.cross {
		c := &t.cross[k]
		tileStride, procStride := int64(1), int64(1)
		for i := n - 1; i >= 0; i-- {
			x := int64(c.dir>>(n-1-i)) & 1
			c.rank += x * tileStride
			tileStride *= tiles[i]
			if i != mapDim {
				c.proc += x * procStride
				procStride *= tiles[i]
			}
		}
	}

	nc := len(t.cross)
	vb := make([]int64, shapes*int64(1+nc))
	t.vol, t.bytes = vb[:shapes], vb[shapes:]
	for sh := int64(0); sh < shapes; sh++ {
		t.vol[sh] = 1
		for i := range box {
			box[i] = full[i]
			if t.stride[i] != 0 && sh/t.stride[i]%2 == 1 {
				box[i] = extents[i] - full[i]*t.last[i]
			}
			t.vol[sh] *= box[i]
		}
		if sh > 0 { // shape 0 is the full tile, whose crossings cs holds
			cs = tiling.BoxCrossings(box, vecs, cs)
		}
		for _, c := range cs {
			off := c.Dir &^ mapBit
			for k := range t.cross {
				if t.cross[k].dir == off {
					t.bytes[sh*int64(nc)+int64(k)] += c.Points * bytesPerElem
				}
			}
		}
	}
	return t, nil
}
