package tiling

import (
	"fmt"

	"repro/internal/ilmath"
	"repro/internal/space"
)

// TileSpace computes the tiled space J^S = { ⌊Hj⌋ : j ∈ J^n } for a
// rectangular tiling of a rectangular iteration space. The result is itself
// a rectangular space: tile coordinates range over [⌊l_d/s_d⌋, ⌊u_d/s_d⌋]
// per dimension.
//
// For non-rectangular H, J^S is generally not a box; use TileSpaceBounds to
// obtain its bounding box instead.
func (t *Tiling) TileSpace(s *space.Space) (*space.Space, error) {
	if s.Dim() != t.Dim() {
		return nil, fmt.Errorf("tiling: space dimension %d != tiling dimension %d", s.Dim(), t.Dim())
	}
	if !t.IsRectangular() {
		return nil, fmt.Errorf("tiling: TileSpace requires a rectangular tiling; use TileSpaceBounds")
	}
	sides, err := t.RectSides()
	if err != nil {
		return nil, err
	}
	lo := make(ilmath.Vec, s.Dim())
	up := make(ilmath.Vec, s.Dim())
	for d := 0; d < s.Dim(); d++ {
		lo[d] = floorDiv(s.Lower[d], sides[d])
		up[d] = floorDiv(s.Upper[d], sides[d])
	}
	return space.New(lo, up)
}

// TileSpaceBounds returns the bounding box of J^S for an arbitrary tiling.
// Each row h_i of H is a linear functional; its extrema over the box J^n are
// attained at corners, computed componentwise from the sign of h_{i,k}. For
// rectangular tilings the bounding box equals J^S exactly.
func (t *Tiling) TileSpaceBounds(s *space.Space) (*space.Space, error) {
	if s.Dim() != t.Dim() {
		return nil, fmt.Errorf("tiling: space dimension %d != tiling dimension %d", s.Dim(), t.Dim())
	}
	n := s.Dim()
	lo := make(ilmath.Vec, n)
	up := make(ilmath.Vec, n)
	for i := 0; i < n; i++ {
		minV, maxV := ilmath.RatZero, ilmath.RatZero
		for k := 0; k < n; k++ {
			h := t.h.At(i, k)
			a := h.Mul(ilmath.RatInt(s.Lower[k]))
			b := h.Mul(ilmath.RatInt(s.Upper[k]))
			if a.Cmp(b) > 0 {
				a, b = b, a
			}
			minV = minV.Add(a)
			maxV = maxV.Add(b)
		}
		lo[i] = minV.Floor()
		up[i] = maxV.Floor()
	}
	return space.New(lo, up)
}

// TileIterations returns the sub-box of iteration points of J^n that fall in
// tile tc under a rectangular tiling, clipped to the iteration space bounds.
// It returns nil (no error) when the tile is empty, which happens for tiles
// in the tile-space bounding box that fall entirely outside J^n.
func (t *Tiling) TileIterations(s *space.Space, tc ilmath.Vec) (*space.Space, error) {
	if !t.IsRectangular() {
		return nil, fmt.Errorf("tiling: TileIterations requires a rectangular tiling")
	}
	if len(tc) != s.Dim() {
		return nil, fmt.Errorf("tiling: tile coordinate dimension %d != %d", len(tc), s.Dim())
	}
	sides, err := t.RectSides()
	if err != nil {
		return nil, err
	}
	lo := make(ilmath.Vec, s.Dim())
	up := make(ilmath.Vec, s.Dim())
	for d := 0; d < s.Dim(); d++ {
		lo[d] = tc[d] * sides[d]
		up[d] = lo[d] + sides[d] - 1
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

// TilePoints enumerates the integer points of iteration space sp that fall
// in tile tc under an arbitrary (possibly skewed) tiling, by scanning the
// bounding box of the tile's parallelepiped region P·[tc, tc+1) clipped to
// sp. The yielded vector is reused; clone to retain. Returns the number of
// points visited.
func (t *Tiling) TilePoints(sp *space.Space, tc ilmath.Vec, visit func(ilmath.Vec)) (int64, error) {
	if len(tc) != t.Dim() || sp.Dim() != t.Dim() {
		return 0, fmt.Errorf("tiling: dimension mismatch")
	}
	n := t.Dim()
	// Bounding box of {P·x : x ∈ [tc, tc+1)} per coordinate i:
	// [Σ_k min(P_ik·tc_k, P_ik·(tc_k+1)), Σ_k max(...)], clipped to sp.
	lo := make(ilmath.Vec, n)
	hi := make(ilmath.Vec, n)
	for i := 0; i < n; i++ {
		lf, hf := ilmath.RatZero, ilmath.RatZero
		for k := 0; k < n; k++ {
			p := t.p.At(i, k)
			a := p.Mul(ilmath.RatInt(tc[k]))
			b := p.Mul(ilmath.RatInt(tc[k] + 1))
			if a.Cmp(b) > 0 {
				a, b = b, a
			}
			lf = lf.Add(a)
			hf = hf.Add(b)
		}
		lo[i] = lf.Floor()
		hi[i] = hf.Ceil()
		if lo[i] < sp.Lower[i] {
			lo[i] = sp.Lower[i]
		}
		if hi[i] > sp.Upper[i] {
			hi[i] = sp.Upper[i]
		}
		if lo[i] > hi[i] {
			return 0, nil
		}
	}
	var count int64
	j := lo.Clone()
	for {
		if t.TileOf(j).Equal(tc) {
			count++
			if visit != nil {
				visit(j)
			}
		}
		d := n - 1
		for d >= 0 {
			j[d]++
			if j[d] <= hi[d] {
				break
			}
			j[d] = lo[d]
			d--
		}
		if d < 0 {
			return count, nil
		}
	}
}

// NonEmptyTiles returns the tiles of sp under t that contain at least one
// iteration point, in lexicographic order. For rectangular tilings every
// tile of TileSpace is non-empty; for skewed tilings the bounding box of
// the tiled space contains empty corners that this prunes.
func (t *Tiling) NonEmptyTiles(sp *space.Space) ([]ilmath.Vec, error) {
	box, err := t.TileSpaceBounds(sp)
	if err != nil {
		return nil, err
	}
	var out []ilmath.Vec
	var scanErr error
	box.Points(func(tc ilmath.Vec) bool {
		n, err := t.TilePoints(sp, tc, nil)
		if err != nil {
			scanErr = err
			return false
		}
		if n > 0 {
			out = append(out, tc.Clone())
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
