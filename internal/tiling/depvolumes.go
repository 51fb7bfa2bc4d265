package tiling

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/deps"
	"repro/internal/ilmath"
)

// TileDepVolume is the exact number of index points of one (interior) tile
// whose values must be sent to the neighbor tile at offset Dir.
type TileDepVolume struct {
	Dir    ilmath.Vec // tiled dependence vector (0/1 components)
	Points int64      // index points crossing to that neighbor
}

// TileDepVolumes computes, in closed form on the first complete tile (see
// BoxCrossings), how many index points each tiled dependence direction
// carries:
//
//	count(ds) = |{ j₀ : ∃ d ∈ D, ⌊H(j₀+d)⌋ = ds ≠ 0 }|
//
// counting distinct source points per direction (a point read by several
// dependences toward the same neighbor is transferred once). The result is
// in lexicographic order of Dir, which for 0/1 vectors is the order of
// their rendered form.
//
// Note: summing these counts gives the exact per-tile communication volume,
// which can be *less* than formula (1)'s V_comm: the formula sums h_i·d_j
// over all boundary surfaces, counting every (dependence, point) pair,
// whereas a boundary point read by several dependences toward the same
// neighbor is transferred once. Example 1's 10×10 tiles: formula (1) gives
// 40, the exact distinct-point decomposition is 10+10+1 = 21.
func (t *Tiling) TileDepVolumes(d *deps.Set) ([]TileDepVolume, error) {
	if !t.Legal(d) {
		return nil, fmt.Errorf("tiling: illegal for %v", d)
	}
	if !t.ContainsDeps(d) {
		return nil, fmt.Errorf("tiling: dependence set %v not contained in a tile", d)
	}
	n := t.Dim()
	cs := BoxCrossings(t.sides, d.Vectors(), nil)
	out := make([]TileDepVolume, len(cs))
	for k, c := range cs {
		dir := make(ilmath.Vec, n)
		for i := range dir {
			dir[i] = int64(c.Dir>>(n-1-i)) & 1
		}
		out[k] = TileDepVolume{Dir: dir, Points: c.Points}
	}
	return out, nil
}

// Crossing is the transfer volume of one direction out of a box: Dir has
// bit n−1−i set when the direction crosses dimension i, so that ordering
// Dirs as integers orders the 0/1 direction vectors lexicographically.
type Crossing struct {
	Dir    uint64
	Points int64
}

// BoxCrossings returns, for the box [0, b) and the non-negative dependence
// vectors vecs, every direction ds ≠ 0 some point of the box reaches and
// the number of distinct points that reach it:
//
//	count(ds) = |{ j₀ ∈ [0, b) : ∃ d ∈ vecs, ds_i = [j₀_i + d_i ≥ b_i] ∀i }|
//
// On a complete tile, where every d_i < b_i, ds is ⌊(j₀+d)/b⌋. On a
// clipped box the same rule measures what the box itself ships: a point
// whose dependence leaves the box counts, whether or not a neighbor lies
// beyond it.
//
// The count is closed-form. In dimension i the breakpoints b_i − d_i cut
// [0, b_i) into at most len(vecs)+1 intervals, and on a cell of their
// product every dependence crosses the same dimensions, so each cell adds
// its volume once to each distinct direction its points reach: at most
// (len(vecs)+1)^n cells, whatever the box's volume. The result reuses
// out's storage and is sorted by Dir. b has 1 to MaxDim positive sides and
// every vector b's dimension.
func BoxCrossings(b ilmath.Vec, vecs []ilmath.Vec, out []Crossing) []Crossing {
	n, nd := len(b), len(vecs)
	// One scratch array: per dimension the sorted interval starts (at most
	// nd+1 of them, then b_i as the end), the cell odometer, and the
	// directions of the current cell.
	w := nd + 2
	var small [64]int64 // the scratch of a small box stays on the stack
	buf := small[:0]
	if size := n*w + 2*n + nd; size <= len(small) {
		buf = small[:size]
	} else {
		buf = make([]int64, size)
	}
	cuts, nCuts, at, seen := buf[:n*w], buf[n*w:n*w+n], buf[n*w+n:n*w+2*n], buf[n*w+2*n:]
	for i := range b {
		c := cuts[i*w : i*w : (i+1)*w]
		c = append(c, 0)
		for _, d := range vecs {
			if x := b[i] - d[i]; x > 0 && x < b[i] && !slices.Contains(c, x) {
				c = append(c, x)
			}
		}
		slices.Sort(c)
		nCuts[i] = int64(len(c))
		_ = append(c, b[i])
	}
	out = out[:0]
	if cap(out) == 0 {
		out = make([]Crossing, 0, nd) // enough when each vector crosses one face
	}
	for {
		vol := int64(1)
		for i := range b {
			k := at[i]
			vol *= cuts[i*w+int(k)+1] - cuts[i*w+int(k)]
		}
		seen = seen[:0]
		for _, d := range vecs {
			var dir uint64
			for i := range b {
				if cuts[i*w+int(at[i])]+d[i] >= b[i] {
					dir |= 1 << (n - 1 - i)
				}
			}
			if dir == 0 || slices.Contains(seen, int64(dir)) {
				continue
			}
			seen = append(seen, int64(dir))
			k := 0
			for k < len(out) && out[k].Dir != dir {
				k++
			}
			if k == len(out) {
				out = append(out, Crossing{Dir: dir})
			}
			out[k].Points += vol
		}
		// Next cell: the odometer's last dimension turns fastest.
		i := n - 1
		for ; i >= 0; i-- {
			if at[i]++; at[i] < nCuts[i] {
				break
			}
			at[i] = 0
		}
		if i < 0 {
			break
		}
	}
	slices.SortFunc(out, func(x, y Crossing) int { return cmp.Compare(x.Dir, y.Dir) })
	return out
}
