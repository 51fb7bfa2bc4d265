package tiling

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/ilmath"
)

// Tiling is a validated supernode transformation.
type Tiling struct {
	h *ilmath.RatMat // the tiling matrix H
	p *ilmath.RatMat // P = H⁻¹, the tile side vectors as columns
	g ilmath.Rat     // |det P|, the tile volume (computation cost V_comp)
}

// FromH builds a Tiling from the hyperplane matrix H. H must be square and
// non-singular.
func FromH(h *ilmath.RatMat) (*Tiling, error) {
	if h.Rows != h.Cols {
		return nil, fmt.Errorf("tiling: H must be square, got %dx%d", h.Rows, h.Cols)
	}
	if h.Rows == 0 {
		return nil, fmt.Errorf("tiling: H must be at least 1x1")
	}
	p, err := h.Inverse()
	if err != nil {
		return nil, fmt.Errorf("tiling: H is singular: %w", err)
	}
	return &Tiling{h: h.Clone(), p: p, g: p.Det().Abs()}, nil
}

// Rectangular builds the axis-aligned tiling with the given integer side
// lengths: H = diag(1/s_1, …, 1/s_n), P = diag(s_1, …, s_n).
func Rectangular(sides ...int64) (*Tiling, error) {
	if len(sides) == 0 {
		return nil, fmt.Errorf("tiling: no sides given")
	}
	d := make([]ilmath.Rat, len(sides))
	for i, s := range sides {
		if s <= 0 {
			return nil, fmt.Errorf("tiling: non-positive side %d in dimension %d", s, i)
		}
		d[i] = ilmath.NewRat(1, s)
	}
	return FromH(ilmath.RatDiag(d...))
}

// MustRectangular is Rectangular but panics on error.
func MustRectangular(sides ...int64) *Tiling {
	t, err := Rectangular(sides...)
	if err != nil {
		panic(err)
	}
	return t
}

// Dim returns the dimension n.
func (t *Tiling) Dim() int { return t.h.Rows }

// H returns a copy of the tiling matrix.
func (t *Tiling) H() *ilmath.RatMat { return t.h.Clone() }

// VolumeInt returns the tile volume g = |det P| = V_comp, the number of
// index points per complete tile; it panics if g is not integral (it always
// is for integer P).
func (t *Tiling) VolumeInt() int64 { return t.g.Int() }

// IsRectangular reports whether H is diagonal, i.e. tiles are axis-aligned
// rectangles.
func (t *Tiling) IsRectangular() bool {
	for i := 0; i < t.h.Rows; i++ {
		for j := 0; j < t.h.Cols; j++ {
			if i != j && t.h.At(i, j).Sign() != 0 {
				return false
			}
		}
	}
	return true
}

// RectSides returns the integer tile side lengths for a rectangular tiling
// with integer sides. It returns an error if the tiling is not rectangular
// or a side is not a positive integer.
func (t *Tiling) RectSides() (ilmath.Vec, error) {
	if !t.IsRectangular() {
		return nil, fmt.Errorf("tiling: not rectangular:\n%v", t.h)
	}
	sides := make(ilmath.Vec, t.Dim())
	for i := range sides {
		s := t.p.At(i, i)
		if !s.IsInt() || s.Int() <= 0 {
			return nil, fmt.Errorf("tiling: side %v in dimension %d is not a positive integer", s, i)
		}
		sides[i] = s.Int()
	}
	return sides, nil
}

// TileOf returns ⌊Hj⌋, the coordinates of the tile containing index point j.
func (t *Tiling) TileOf(j ilmath.Vec) ilmath.Vec {
	return t.h.FloorVec(j)
}

// Legal reports whether HD ≥ 0 holds, the deadlock-freedom condition of
// Irigoin & Triolet.
func (t *Tiling) Legal(d *deps.Set) bool {
	if d.Dim() != t.Dim() {
		return false
	}
	hd := t.h.MulIntMat(d.Matrix())
	for i := 0; i < hd.Rows; i++ {
		for j := 0; j < hd.Cols; j++ {
			if hd.At(i, j).Sign() < 0 {
				return false
			}
		}
	}
	return true
}

// ContainsDeps reports whether every dependence is contained within a tile:
// 0 ≤ Hd < 1 componentwise (equivalently ⌊HD⌋ = 0). Under this condition
// the tiled space has only 0/1 dependence vectors and every tile exchanges
// data only with its nearest neighbors.
func (t *Tiling) ContainsDeps(d *deps.Set) bool {
	if d.Dim() != t.Dim() {
		return false
	}
	hd := t.h.MulIntMat(d.Matrix())
	for i := 0; i < hd.Rows; i++ {
		for j := 0; j < hd.Cols; j++ {
			e := hd.At(i, j)
			if e.Sign() < 0 || e.Cmp(ilmath.RatOne) >= 0 {
				return false
			}
		}
	}
	return true
}

// TileDeps computes the tiled dependence matrix D^S of Section 2.3:
//
//	D^S = { ⌊H(j₀ + d)⌋ : d ∈ D, j₀ in the first complete tile }
//
// (zero vectors, i.e. dependences staying inside a tile, are dropped).
// It requires ContainsDeps(d) so that D^S ⊆ {0,1}^n. The result is returned
// as a deduplicated dependence set.
func (t *Tiling) TileDeps(d *deps.Set) (*deps.Set, error) {
	if !t.Legal(d) {
		return nil, fmt.Errorf("tiling: illegal for dependence set %v (HD has negative entries)", d)
	}
	if !t.ContainsDeps(d) {
		return nil, fmt.Errorf("tiling: dependence set %v not contained in a tile (⌊HD⌋ ≠ 0)", d)
	}
	// With 0 ≤ Hj₀ < 1 and 0 ≤ Hd < 1, ⌊H(j₀+d)⌋ ∈ {0,1}^n. Component i of
	// the floor is 1 iff (Hj₀)_i + (Hd)_i ≥ 1 for the particular j₀. Rather
	// than enumerating the whole first tile (volume g points), observe that
	// the achievable floor patterns are exactly those where, independently
	// per component, a j₀ exists realizing the needed fractional part — but
	// components are coupled through j₀. For exactness we enumerate lattice
	// points of the first tile, bounded by a volume guard.
	const maxEnum = 1 << 20
	if !t.g.IsInt() || t.g.Int() > maxEnum {
		return nil, fmt.Errorf("tiling: tile volume %v too large for exact D^S enumeration (max %d)", t.g, maxEnum)
	}
	seen := make(map[string]ilmath.Vec)
	t.firstTilePoints(func(j0 ilmath.Vec) {
		for k := 0; k < d.Len(); k++ {
			ds := t.TileOf(j0.Add(d.At(k)))
			if ds.IsZero() {
				continue
			}
			seen[ds.String()] = ds
		}
	})
	if len(seen) == 0 {
		return nil, fmt.Errorf("tiling: no inter-tile dependences (tile too large for space?)")
	}
	// Deterministic order: sort by rendered form.
	out := make([]ilmath.Vec, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return deps.NewSet(out...)
}

// firstTilePoints enumerates the lattice points j₀ with 0 ≤ Hj₀ < 1, i.e.
// the first complete tile anchored at the origin.
func (t *Tiling) firstTilePoints(visit func(ilmath.Vec)) {
	n := t.Dim()
	// Bounding box of the tile {P·x : x ∈ [0,1)^n}: per coordinate i the
	// range is [Σ_k min(0, P_ik), Σ_k max(0, P_ik)].
	lo := make(ilmath.Vec, n)
	hi := make(ilmath.Vec, n)
	for i := 0; i < n; i++ {
		lf, hf := ilmath.RatZero, ilmath.RatZero
		for k := 0; k < n; k++ {
			e := t.p.At(i, k)
			if e.Sign() < 0 {
				lf = lf.Add(e)
			} else {
				hf = hf.Add(e)
			}
		}
		lo[i] = lf.Floor()
		hi[i] = hf.Ceil()
	}
	j := lo.Clone()
	for {
		if t.TileOf(j).IsZero() {
			visit(j)
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
			return
		}
	}
}

func sortStrings(s []string) {
	// Insertion sort; dependence sets are tiny.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// String summarizes the tiling.
func (t *Tiling) String() string {
	return fmt.Sprintf("Tiling(H=\n%v\ng=%v)", t.h, t.g)
}
