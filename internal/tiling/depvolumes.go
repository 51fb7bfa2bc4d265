package tiling

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/ilmath"
)

// TileDepVolume is the exact number of index points of one (interior) tile
// whose values must be sent to the neighbor tile at offset Dir.
type TileDepVolume struct {
	Dir    ilmath.Vec // tiled dependence vector (0/1 components)
	Points int64      // index points crossing to that neighbor
}

// TileDepVolumes computes, by exact enumeration of the first complete tile,
// how many index points each tiled dependence direction carries:
//
//	count(ds) = |{ j₀ : ∃ d ∈ D, ⌊H(j₀+d)⌋ = ds ≠ 0 }|
//
// counting distinct source points per direction (a point read by several
// dependences toward the same neighbor is transferred once). The result is
// sorted by the rendered form of Dir.
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
	if g := t.VolumeInt(); g > maxEnum {
		return nil, fmt.Errorf("tiling: tile volume %v too large for exact enumeration", g)
	}
	return t.crossings(d), nil
}
