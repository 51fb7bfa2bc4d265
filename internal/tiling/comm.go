package tiling

import (
	"fmt"
	"math"

	"repro/internal/deps"
	"repro/internal/ilmath"
)

// CommVolume computes the communication cost of a tile per formula (1) of
// the paper:
//
//	V_comm(H) = (1/|det H|) · Σ_i Σ_j (H·D)_{i,j}
//
// the number of iteration points whose results must be sent to neighboring
// tiles, summed over all tile boundary surfaces. Legality HD ≥ 0 must hold
// (all contributions non-negative); CommVolume returns an error otherwise.
func (t *Tiling) CommVolume(d *deps.Set) (int64, error) {
	rows, err := t.RowCommVolume(d)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, r := range rows {
		sum += r
	}
	return sum, nil
}

// CommVolumeMapped computes the interprocessor communication cost per
// formula (2): tiles along dimension mapDim are executed by the same
// processor, so dependences crossing that dimension's boundary surface cost
// nothing. Equivalently, row mapDim of H is dropped from the formula-(1) sum:
//
//	V_comm(H) = (1/|det H|) · Σ_{i ≠ mapDim} Σ_j (H·D)_{i,j}
func (t *Tiling) CommVolumeMapped(d *deps.Set, mapDim int) (int64, error) {
	if mapDim < 0 || mapDim >= t.Dim() {
		return 0, fmt.Errorf("tiling: mapping dimension %d out of range [0,%d)", mapDim, t.Dim())
	}
	rows, err := t.RowCommVolume(d)
	if err != nil {
		return 0, err
	}
	var sum int64
	for i, r := range rows {
		if i != mapDim {
			sum += r
		}
	}
	return sum, nil
}

// RowCommVolume returns the per-boundary-surface communication contribution
// g·Σ_j (H·D)_{i,j} for each row i. For H = diag(1/s), g/s_i is the product
// of the other sides, so row i is that face's area times Σ_j d_{j,i}, an
// integer. The total over all rows equals formula (1); dropping the mapping
// row gives formula (2). Used to size per-neighbor messages.
func (t *Tiling) RowCommVolume(d *deps.Set) ([]int64, error) {
	if !t.Legal(d) {
		return nil, fmt.Errorf("tiling: illegal for %v", d)
	}
	g := t.VolumeInt()
	out := make([]int64, t.Dim())
	for _, v := range d.Vectors() {
		for i, x := range v {
			out[i] += g / t.sides[i] * x
		}
	}
	return out, nil
}

// OptimalRectSides returns integer tile side lengths minimizing the
// rectangular-tiling communication volume for a given tile volume budget g.
//
// For H = diag(1/s_1,…,1/s_n), formula (1) becomes
//
//	V_comm = Σ_i r_i · g / s_i,   r_i := Σ_j d_{i,j},
//
// minimized subject to Π s_i = g. The continuous optimum has s_i ∝ r_i
// (so with equal per-dimension dependence weight — e.g. Example 1 where
// r = (2,2) — square tiles are optimal, as the paper chooses). The
// continuous solution is rounded and refined by a bounded local search over
// integer side vectors with product ≤ g.
//
// Dimensions with r_i = 0 carry no communication; they are assigned side 1
// first and absorb any leftover volume last.
func OptimalRectSides(d *deps.Set, g int64) (ilmath.Vec, error) {
	if g <= 0 {
		return nil, fmt.Errorf("tiling: non-positive volume budget %d", g)
	}
	if !d.IsNonNegative() {
		return nil, fmt.Errorf("tiling: rectangular tiling requires non-negative dependences, got %v", d)
	}
	n := d.Dim()
	r := make([]float64, n)
	for _, v := range d.Vectors() {
		for i, x := range v {
			r[i] += float64(x)
		}
	}
	// Continuous optimum: s_i = r_i · (g / Π r_k)^(1/n) over dims with r_i>0.
	prod := 1.0
	active := 0
	for _, ri := range r {
		if ri > 0 {
			prod *= ri
			active++
		}
	}
	sides := make(ilmath.Vec, n)
	if active == 0 {
		// No communication at all; any shape works. Put all volume in dim 0.
		for i := range sides {
			sides[i] = 1
		}
		sides[0] = g
		return sides, nil
	}
	scale := math.Pow(float64(g)/prod, 1.0/float64(active))
	for i := range sides {
		if r[i] == 0 {
			sides[i] = 1
			continue
		}
		s := int64(r[i]*scale + 0.5)
		if s < 1 {
			s = 1
		}
		sides[i] = s
	}
	// Local search: greedily adjust sides ±1 while V_comm improves and the
	// volume stays ≤ g (we never exceed the budget; undershooting slightly
	// is acceptable for integer sides).
	// Objective: communication per unit of computation, Σ r_i / s_i, under
	// the volume budget Π s_i ≤ g. (Using raw per-tile V_comm would wrongly
	// favor undersized tiles; normalizing by tile volume keeps the objective
	// meaningful when integer sides cannot hit g exactly.)
	cost := func(s ilmath.Vec) float64 {
		v := int64(1)
		for _, x := range s {
			v *= x
		}
		if v > g {
			return math.Inf(1)
		}
		c := 0.0
		for i := range s {
			c += r[i] / float64(s[i])
		}
		return c
	}
	for math.IsInf(cost(sides), 1) {
		// Shrink the largest side until within budget.
		sides[ilmath.Vec(sides).ArgMax()]--
	}
	improved := true
	for improved {
		improved = false
		best := cost(sides)
		for i := range sides {
			for _, delta := range []int64{1, -1} {
				if sides[i]+delta < 1 {
					continue
				}
				sides[i] += delta
				if c := cost(sides); c < best {
					best = c
					improved = true
				} else {
					sides[i] -= delta
				}
			}
		}
	}
	return sides, nil
}
