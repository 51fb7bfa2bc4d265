package schedule

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

// Linear is a linear time schedule defined by the row vector Π.
type Linear struct {
	Pi ilmath.Vec
}

// NonOverlapping returns the optimal linear schedule Π = (1,…,1) for the
// tiled space with unit dependence vectors (Section 3).
func NonOverlapping(n int) *Linear {
	pi := make(ilmath.Vec, n)
	for i := range pi {
		pi[i] = 1
	}
	return &Linear{Pi: pi}
}

// Overlapping returns the modified linear schedule of Section 4 with
// processor mapping along dimension mapDim: coefficient 1 at mapDim and 2
// elsewhere.
func Overlapping(n, mapDim int) (*Linear, error) {
	if mapDim < 0 || mapDim >= n {
		return nil, fmt.Errorf("schedule: mapDim %d out of range [0,%d)", mapDim, n)
	}
	pi := make(ilmath.Vec, n)
	for i := range pi {
		pi[i] = 2
	}
	pi[mapDim] = 1
	return &Linear{Pi: pi}, nil
}

// Dim returns the dimension of the schedule vector.
func (l *Linear) Dim() int { return l.Pi.Dim() }

// Disp returns dispΠ = min{Π·d : d ∈ D}, the schedule displacement. A valid
// schedule requires Disp ≥ 1.
func (l *Linear) Disp(d *deps.Set) (int64, error) {
	if d.Dim() != l.Dim() {
		return 0, fmt.Errorf("schedule: dependence dimension %d != schedule dimension %d", d.Dim(), l.Dim())
	}
	min := l.Pi.Dot(d.At(0))
	for i := 1; i < d.Len(); i++ {
		if v := l.Pi.Dot(d.At(i)); v < min {
			min = v
		}
	}
	return min, nil
}

// minMaxOver returns the minimum and maximum of Π·j over the box s, using
// the per-component sign of Π.
func (l *Linear) minMaxOver(s *space.Space) (min, max int64) {
	for i, c := range l.Pi {
		a, b := c*s.Lower[i], c*s.Upper[i]
		if a > b {
			a, b = b, a
		}
		min += a
		max += b
	}
	return min, max
}

// T0 returns t₀ = −min{Π·j : j ∈ s}, the offset that makes the first step 0.
func (l *Linear) T0(s *space.Space) int64 {
	min, _ := l.minMaxOver(s)
	return -min
}

// Time returns the execution step of point j in space s under dependence
// set d: ⌊(Π·j + t₀)/dispΠ⌋.
func (l *Linear) Time(j ilmath.Vec, s *space.Space, d *deps.Set) (int64, error) {
	disp, err := l.Disp(d)
	if err != nil {
		return 0, err
	}
	if disp < 1 {
		return 0, fmt.Errorf("schedule: Π = %v invalid for %v (dispΠ = %d)", l.Pi, d, disp)
	}
	return floorDiv(l.Pi.Dot(j)+l.T0(s), disp), nil
}

// Length returns the number of time steps P needed to execute space s under
// dependence set d: t(last) − t(first) + 1.
func (l *Linear) Length(s *space.Space, d *deps.Set) (int64, error) {
	disp, err := l.Disp(d)
	if err != nil {
		return 0, err
	}
	if disp < 1 {
		return 0, fmt.Errorf("schedule: Π = %v invalid for %v (dispΠ = %d)", l.Pi, d, disp)
	}
	min, max := l.minMaxOver(s)
	return floorDiv(max-min, disp) + 1, nil
}

// String renders the schedule vector.
func (l *Linear) String() string { return "Π=" + l.Pi.String() }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
