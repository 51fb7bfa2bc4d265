package tiling

import (
	"fmt"

	"repro/internal/ilmath"
	"repro/internal/space"
)

// TileSpace computes the tiled space J^S = { ⌊Hj⌋ : j ∈ J^n } of a
// rectangular iteration space. The result is itself a rectangular space:
// tile coordinates range over [⌊l_d/s_d⌋, ⌊u_d/s_d⌋] per dimension, and
// every tile in it holds at least one iteration point.
func (t *Tiling) TileSpace(s *space.Space) (*space.Space, error) {
	if s.Dim() != t.Dim() {
		return nil, fmt.Errorf("tiling: space dimension %d != tiling dimension %d", s.Dim(), t.Dim())
	}
	lo := make(ilmath.Vec, s.Dim())
	up := make(ilmath.Vec, s.Dim())
	for d := 0; d < s.Dim(); d++ {
		lo[d] = floorDiv(s.Lower[d], t.sides[d])
		up[d] = floorDiv(s.Upper[d], t.sides[d])
	}
	return space.New(lo, up)
}

// TileIterations returns the sub-box of iteration points of J^n that fall in
// tile tc, clipped to the iteration space bounds. It returns nil (no error)
// when the tile is empty, which happens for tiles outside TileSpace(s).
func (t *Tiling) TileIterations(s *space.Space, tc ilmath.Vec) (*space.Space, error) {
	if len(tc) != s.Dim() {
		return nil, fmt.Errorf("tiling: tile coordinate dimension %d != %d", len(tc), s.Dim())
	}
	if s.Dim() != t.Dim() {
		return nil, fmt.Errorf("tiling: space dimension %d != tiling dimension %d", s.Dim(), t.Dim())
	}
	lo := make(ilmath.Vec, s.Dim())
	up := make(ilmath.Vec, s.Dim())
	for d := 0; d < s.Dim(); d++ {
		lo[d] = tc[d] * t.sides[d]
		up[d] = lo[d] + t.sides[d] - 1
		if lo[d] < s.Lower[d] {
			lo[d] = s.Lower[d]
		}
		if up[d] > s.Upper[d] {
			up[d] = s.Upper[d]
		}
		if lo[d] > up[d] {
			return nil, nil // tile entirely outside the iteration space
		}
	}
	return space.New(lo, up)
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
