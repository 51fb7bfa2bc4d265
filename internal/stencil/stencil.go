package stencil

import (
	"fmt"
	"math"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

// Kernel is one uniform-dependence assignment statement.
type Kernel interface {
	// Name identifies the kernel in logs and CLI output.
	Name() string
	// Deps returns the kernel's dependence set.
	Deps() *deps.Set
	// Eval computes the value at point j. get(q) returns the value at a
	// dependence predecessor q = j − d (inside or outside the space; the
	// executor resolves boundary reads).
	Eval(j ilmath.Vec, get func(ilmath.Vec) float64) float64
}

// Boundary supplies values for reads outside the iteration space. The
// default boundary is the constant 1. A Boundary must not keep j after it
// returns: an executor may pass the same vector, rewritten, on every call.
type Boundary func(j ilmath.Vec) float64

// ConstBoundary returns a Boundary with a fixed value everywhere.
func ConstBoundary(v float64) Boundary {
	return func(ilmath.Vec) float64 { return v }
}

// Sqrt3D is the paper's Section 5 test kernel:
//
//	A(i,j,k) = √A(i−1,j,k) + √A(i,j−1,k) + √A(i,j,k−1)
//
// chosen by the authors ("square roots and floats") to raise t_c to a
// realistic value.
type Sqrt3D struct{}

// Name implements Kernel.
func (Sqrt3D) Name() string { return "sqrt3d" }

// Deps implements Kernel.
func (Sqrt3D) Deps() *deps.Set { return deps.Stencil3D() }

// Eval implements Kernel.
func (Sqrt3D) Eval(j ilmath.Vec, get func(ilmath.Vec) float64) float64 {
	return math.Sqrt(get(ilmath.V(j[0]-1, j[1], j[2]))) +
		math.Sqrt(get(ilmath.V(j[0], j[1]-1, j[2]))) +
		math.Sqrt(get(ilmath.V(j[0], j[1], j[2]-1)))
}

// Block3D is an optional fast path a Kernel may offer to an executor that
// stores its subdomain densely, k-contiguous, with the predecessors of every
// boundary point present as ghost data: it asks for a whole box at a time
// instead of one Eval per point. A type that merely embeds a Kernel does not
// inherit the method, so decorators fall back to Eval.
type Block3D interface {
	// SweepBlock evaluates the kernel over the box of ni×nj×nk points whose
	// point (i, j, k) lives at a[base + i·si + j·sj + k], in an order that
	// honours the dependences. The predecessor for dependence d sits at
	// offset −(d·strides), the strides being (si, sj, 1) for a 3-D kernel
	// and (1, sj) for a 2-D one, whose dimension 0 runs along k (ni = 1).
	// The ghost shell the dependence set reaches from the box is
	// addressable. Each result equals what Eval returns for the same point,
	// bit for bit.
	SweepBlock(a []float64, base, ni, nj, nk, si, sj int)
}

// Sqrt3D's grouped sweep advances sqrtGroup rows together, two to an SSE2
// register, over k-runs of at most sqrtChunk points, the length of its root
// buffer.
const (
	sqrtGroup = 8
	sqrtChunk = 256
)

// SweepBlock implements Block3D. Boxes of at least sqrtGroup rows and points
// per row take the grouped sweep; the rows left over, and boxes too small to
// group, take the plain row loop. The sum is formed left to right exactly as
// in Eval (west, north, then k−1), and a root is the same value wherever it
// is taken, so every path agrees with Eval bit for bit.
func (Sqrt3D) SweepBlock(a []float64, base, ni, nj, nk, si, sj int) {
	grouped := 0
	if nk >= sqrtGroup {
		grouped = nj - nj%sqrtGroup
	}
	if grouped > 0 { // only then: the call zeroes 18.5 KiB of root buffers
		sweepSqrtGroups(a, base, ni, grouped, nk, si, sj)
	}
	sweepSqrtRows(a, base+grouped*sj, ni, nj-grouped, nk, si, sj)
}

// sweepSqrtGroups sweeps a box whose nj is a multiple of sqrtGroup and whose
// nk is at least sqrtGroup. Within a group, row r runs r points behind row 0
// along k, so the root row r takes of its own previous value is also the
// north root row r+1 needs at the same step. Every root taken is kept in
// roots as the west root of the next i-plane. Fresh roots remain only for the
// north of a group's first row, the west of the box's first plane and the
// k−1 ghost of each row in each chunk: about 1.15 per point instead of 3.
//
// roots is interleaved by step: roots[s*sqrtGroup+r] is the root of row r's
// point s−r, so the eight roots one step reads, and the eight it writes, are
// each one contiguous 64-byte run.
func sweepSqrtGroups(a []float64, base, ni, nj, nk, si, sj int) {
	var roots [(sqrtChunk + sqrtGroup) * sqrtGroup]float64
	var row [sqrtChunk]float64 // one row's roots: each west row's in turn, then each plane's north row's
	chunks := (nk + sqrtChunk - 1) / sqrtChunk
	for c := 0; c < chunks; c++ {
		k0 := c * nk / chunks
		n := (c+1)*nk/chunks - k0 // even split: never below sqrtChunk/2 once nk > sqrtChunk
		for j := 0; j < nj; j += sqrtGroup {
			o := base + j*sj + k0
			for r := 0; r < sqrtGroup; r++ {
				sqrtRow(row[:n], a[o-si+r*sj:][:n])
				for x, q := range row[:n] {
					roots[(x+r)*sqrtGroup+r] = q
				}
			}
			for i := 0; i < ni; i++ {
				sweepSqrtGroup(a, o+i*si, n, sj, roots[:(n+sqrtGroup-1)*sqrtGroup], row[:n])
			}
		}
	}
}

// sweepSqrtGroup computes sqrtGroup rows of n ≥ sqrtGroup points starting at
// a[o], a[o+sj], …, their west roots in roots, which it overwrites with the
// roots of the rows it computes. At step t row r takes the root of its point
// t−r−1 (or of its k−1 ghost) and, while t−r < n, computes point t−r. The
// steps where some row has not started or has already finished run here, row
// by row; the steps between, where all rows compute, run in sqrtSteady.
// north is scratch for the n roots of the row before the group.
func sweepSqrtGroup(a []float64, o, n, sj int, roots, north []float64) {
	sqrtRow(north, a[o-sj:][:n])
	var rows [sqrtGroup][]float64
	var last [sqrtGroup]float64 // each row's latest value, whose root the next step takes
	for r := range rows {
		rows[r] = a[o+r*sj:][:n]
		last[r] = a[o+r*sj-1]
	}
	ramp := func(t0, t1 int) {
		for t := t0; t < t1; t++ {
			var q float64 // the root the row above took this step: this row's north
			for r := max(0, t-n); r <= min(sqrtGroup-1, t); r++ {
				x, above := t-r, q
				q = math.Sqrt(last[r])
				if x > 0 {
					roots[(t-1)*sqrtGroup+r] = q
				}
				if x < n {
					if r == 0 {
						above = north[x]
					}
					last[r] = roots[t*sqrtGroup+r] + above + q
					rows[r][x] = last[r]
				}
			}
		}
	}
	ramp(0, sqrtGroup)
	// The steady steps t in [sqrtGroup, n), each slice cut to exactly what
	// they touch: row r's points t−r, the north row's points t, the roots
	// the steps write (at t−1) and read (at t).
	var steady [sqrtGroup][]float64
	for r := range steady {
		steady[r] = rows[r][sqrtGroup-r : n-r]
	}
	sqrtSteady(&steady, north[sqrtGroup:], roots[(sqrtGroup-1)*sqrtGroup:n*sqrtGroup], &last)
	ramp(n, n+sqrtGroup)
}

// sweepSqrtRows is the plain row loop: three roots per point, one k-chain at
// a time.
func sweepSqrtRows(a []float64, base, ni, nj, nk, si, sj int) {
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			o := base + i*si + j*sj
			row := a[o : o+nk]
			west := a[o-si:][:len(row)] // same length, stated so the loop needs no bounds checks
			north := a[o-sj:][:len(row)]
			prev := a[o-1]
			for k := range row {
				prev = math.Sqrt(west[k]) + math.Sqrt(north[k]) + math.Sqrt(prev)
				row[k] = prev
			}
		}
	}
}

// Sum2D is the kernel of the paper's Example 1:
//
//	A(i1,i2) = A(i1−1,i2−1) + A(i1−1,i2) + A(i1,i2−1)
type Sum2D struct{}

// Name implements Kernel.
func (Sum2D) Name() string { return "sum2d" }

// Deps implements Kernel.
func (Sum2D) Deps() *deps.Set { return deps.Example1Deps() }

// Eval implements Kernel.
func (Sum2D) Eval(j ilmath.Vec, get func(ilmath.Vec) float64) float64 {
	return get(ilmath.V(j[0]-1, j[1]-1)) +
		get(ilmath.V(j[0]-1, j[1])) +
		get(ilmath.V(j[0], j[1]-1))
}

// SweepBlock implements Block3D. A column (fixed i2) is swept along i1 with
// the column to its left as the other operand row; the sum is formed left to
// right exactly as in Eval (diagonal, i1−1, then i2−1).
func (Sum2D) SweepBlock(a []float64, base, ni, nj, nk, si, sj int) {
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			o := base + i*si + j*sj
			row := a[o : o+nk]
			left := a[o-sj-1:][:len(row)+1] // left[k] is the diagonal predecessor of row[k], left[k+1] the one beside it
			prev := a[o-1]
			for k := range row {
				prev = left[k] + prev + left[k+1]
				row[k] = prev
			}
		}
	}
}

// Weighted is a generic uniform-dependence kernel: a weighted sum over the
// dependence predecessors, optionally passed through math.Sqrt. It lets
// tests and benchmarks dial t_c and dependence structure freely.
type Weighted struct {
	KernelName string
	D          *deps.Set
	Weights    []float64
	UseSqrt    bool
}

// NewWeighted validates and builds a Weighted kernel.
func NewWeighted(name string, d *deps.Set, weights []float64, useSqrt bool) (*Weighted, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("stencil: empty dependence set")
	}
	if len(weights) != d.Len() {
		return nil, fmt.Errorf("stencil: %d weights for %d dependences", len(weights), d.Len())
	}
	return &Weighted{KernelName: name, D: d, Weights: weights, UseSqrt: useSqrt}, nil
}

// Name implements Kernel.
func (w *Weighted) Name() string { return w.KernelName }

// Deps implements Kernel.
func (w *Weighted) Deps() *deps.Set { return w.D }

// Eval implements Kernel.
func (w *Weighted) Eval(j ilmath.Vec, get func(ilmath.Vec) float64) float64 {
	var s float64
	for i := 0; i < w.D.Len(); i++ {
		v := get(j.Sub(w.D.At(i)))
		if w.UseSqrt {
			v = math.Sqrt(math.Abs(v))
		}
		s += w.Weights[i] * v
	}
	return s
}

// Grid is a dense array over an iteration space, row-major in lexicographic
// point order.
type Grid struct {
	Space *space.Space
	Data  []float64
}

// NewGrid allocates a zeroed grid over s.
func NewGrid(s *space.Space) *Grid {
	return &Grid{Space: s, Data: make([]float64, s.Volume())}
}

// At returns the value at point j. It panics if j is outside the space.
func (g *Grid) At(j ilmath.Vec) float64 { return g.Data[g.Space.Linearize(j)] }

// Set assigns the value at point j.
func (g *Grid) Set(j ilmath.Vec, v float64) { g.Data[g.Space.Linearize(j)] = v }

// RunSequential executes the kernel over the whole space in lexicographic
// (sequential loop) order — the reference semantics every parallel schedule
// must reproduce exactly.
func RunSequential(s *space.Space, k Kernel, b Boundary) (*Grid, error) {
	if s.Dim() != k.Deps().Dim() {
		return nil, fmt.Errorf("stencil: kernel %s has dimension %d, space has %d",
			k.Name(), k.Deps().Dim(), s.Dim())
	}
	if b == nil {
		b = ConstBoundary(1)
	}
	g := NewGrid(s)
	get := func(q ilmath.Vec) float64 {
		if s.Contains(q) {
			return g.At(q)
		}
		return b(q)
	}
	s.Points(func(j ilmath.Vec) bool {
		g.Set(j, k.Eval(j, get))
		return true
	})
	return g, nil
}

// MaxAbsDiff returns the maximum absolute element difference between two
// grids over the same space. Elements with the same bits differ by 0, NaN and
// infinities included. A pair with different bits whose difference is NaN (a
// NaN against anything else) counts as +Inf, so a NaN never verifies.
func MaxAbsDiff(a, b *Grid) (float64, error) {
	if !a.Space.Equal(b.Space) {
		return 0, fmt.Errorf("stencil: grids cover different spaces")
	}
	var m float64
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float64bits(x) == math.Float64bits(y) {
			continue
		}
		d := math.Abs(x - y)
		if math.IsNaN(d) {
			d = math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}
