package tiling

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/deps"
	"repro/internal/ilmath"
)

// MaxDim is the largest dimension a tiling has: BoxCrossings names a
// direction by one bit per dimension of a uint64.
const MaxDim = 64

// Tiling is a validated rectangular supernode transformation: tiles are
// boxes with positive integer side lengths s, H = diag(1/s_1, …, 1/s_n).
type Tiling struct {
	sides ilmath.Vec
}

// Rectangular builds the axis-aligned tiling with the given integer side
// lengths: H = diag(1/s_1, …, 1/s_n), P = diag(s_1, …, s_n).
func Rectangular(sides ...int64) (*Tiling, error) {
	if len(sides) == 0 || len(sides) > MaxDim {
		return nil, fmt.Errorf("tiling: %d sides given, want 1 to %d", len(sides), MaxDim)
	}
	g := int64(1)
	for i, s := range sides {
		if s <= 0 {
			return nil, fmt.Errorf("tiling: non-positive side %d in dimension %d", s, i)
		}
		if g > math.MaxInt64/s {
			return nil, fmt.Errorf("tiling: tile volume of sides %v overflows int64", ilmath.Vec(sides))
		}
		g *= s
	}
	return &Tiling{sides: ilmath.V(sides...)}, nil
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
func (t *Tiling) Dim() int { return len(t.sides) }

// Sides returns a copy of the tile side lengths s.
func (t *Tiling) Sides() ilmath.Vec { return t.sides.Clone() }

// VolumeInt returns the tile volume g = Π s_i = |det P| = V_comp, the
// number of index points per complete tile. Rectangular has checked that
// it fits an int64.
func (t *Tiling) VolumeInt() int64 {
	g := int64(1)
	for _, s := range t.sides {
		g *= s
	}
	return g
}

// Legal reports whether HD ≥ 0 holds, the deadlock-freedom condition of
// Irigoin & Triolet. For H = diag(1/s) with s > 0 that is every dependence
// component being non-negative.
func (t *Tiling) Legal(d *deps.Set) bool {
	return d.Dim() == t.Dim() && d.IsNonNegative()
}

// ContainsDeps reports whether every dependence is contained within a tile:
// 0 ≤ Hd < 1 componentwise (equivalently ⌊HD⌋ = 0), that is 0 ≤ d_i < s_i.
// Under this condition the tiled space has only 0/1 dependence vectors and
// every tile exchanges data only with its nearest neighbors.
func (t *Tiling) ContainsDeps(d *deps.Set) bool {
	if d.Dim() != t.Dim() {
		return false
	}
	for _, v := range d.Vectors() {
		for i, x := range v {
			if x < 0 || x >= t.sides[i] {
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
// as a deduplicated dependence set in lexicographic order, which for 0/1
// vectors is the order of their rendered form.
func (t *Tiling) TileDeps(d *deps.Set) (*deps.Set, error) {
	if !t.Legal(d) {
		return nil, fmt.Errorf("tiling: illegal for dependence set %v (HD has negative entries)", d)
	}
	if !t.ContainsDeps(d) {
		return nil, fmt.Errorf("tiling: dependence set %v not contained in a tile (⌊HD⌋ ≠ 0)", d)
	}
	vols, err := t.TileDepVolumes(d)
	if err != nil {
		return nil, err
	}
	out := make([]ilmath.Vec, len(vols))
	for i, v := range vols {
		out[i] = v.Dir
	}
	return deps.NewSet(out...)
}

// String renders the tiling matrix H = diag(1/s_1, …, 1/s_n) one row per
// line, as "[1/10 0]\n[0 1/10]".
func (t *Tiling) String() string {
	var b strings.Builder
	for i := range t.sides {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteByte('[')
		for j, s := range t.sides {
			if j > 0 {
				b.WriteByte(' ')
			}
			switch {
			case i != j:
				b.WriteByte('0')
			case s == 1:
				b.WriteByte('1')
			default:
				fmt.Fprintf(&b, "1/%d", s)
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
