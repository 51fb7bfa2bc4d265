package model

import (
	"repro/internal/deps"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/tiling"
)

// ExampleResult collects the quantities of the paper's worked examples so
// tests and the CLI can compare against the printed values.
type ExampleResult struct {
	G          int64   // tile size
	VComm      int64   // communication volume, formula (2)
	P          int64   // schedule length
	StepTime   float64 // per-step time, seconds
	Total      float64 // total completion time, seconds
	TotalInTc  float64 // total in units of t_c (the paper reports 400036·t_c etc.)
	MapDim     int
	TileSpace  *space.Space
	SchedulePi []int64
}

// Example1 reproduces the paper's Example 1 (Section 3) end-to-end from the
// library primitives: the 10000×1000 2-D loop, 10×10 square tiles, the
// non-overlapping schedule Π = (1,1), and the eq. 3 total
// T = 1099 · 364·t_c = 400036·t_c ≈ 0.4 s.
func Example1() (ExampleResult, error) {
	m := Example1Machine()
	sp := space.MustRect(10000, 1000)
	d := deps.Example1Deps()

	// g = c·t_s/t_c = 100 (c = 1 neighbor), square tiles 10×10.
	g := int64(m.HodzicShangOptimalG(1)) // = 100
	sides, err := tiling.OptimalRectSides(d, g)
	if err != nil {
		return ExampleResult{}, err
	}
	tl, err := tiling.Rectangular(sides...)
	if err != nil {
		return ExampleResult{}, err
	}
	ts, err := tl.TileSpace(sp)
	if err != nil {
		return ExampleResult{}, err
	}
	mapDim := ts.LargestDim() // dim 0 (999 > 99)
	vcomm, err := tl.CommVolumeMapped(d, mapDim)
	if err != nil {
		return ExampleResult{}, err
	}
	lin := schedule.NonOverlapping(2)
	p, err := lin.Length(ts, deps.Unit(2))
	if err != nil {
		return ExampleResult{}, err
	}
	// One send + one receive per step of V_comm points each.
	bytes := vcomm * m.BytesPerElem
	step := StepShape{
		ComputePoints: tl.VolumeInt(),
		SendBytes:     []int64{bytes},
		RecvBytes:     []int64{bytes},
	}
	stepTime := m.NonOverlappedStep(step)
	total := m.TotalNonOverlapped(p, step)
	return ExampleResult{
		G:          tl.VolumeInt(),
		VComm:      vcomm,
		P:          p,
		StepTime:   stepTime,
		Total:      total,
		TotalInTc:  total / m.Tc,
		MapDim:     mapDim,
		TileSpace:  ts,
		SchedulePi: lin.Pi,
	}, nil
}

// Example3 reproduces the paper's Example 3 (Section 4): the same problem
// under the overlapping schedule Π = (1,2) with mapping along dimension 0.
// The schedule length becomes P = 999 + 2·99 + 1 = 1198 and, with
// T_fill_MPI_buffer = t_s/2 per message, the CPU path dominates:
// per step A1+A2+A3 = 50 + 100 + 50 = 200·t_c, so
// T = 1198·200·t_c = 239600·t_c ≈ 0.24 s — the paper's headline result.
//
// (The paper's inline arithmetic prints "1198(25t_c+25t_c+100t_c) =
// 179700·t_c = 0.24 secs"; 1198·150 = 179700·t_c is 0.18 s, inconsistent
// with its own "0.24 secs" — the headline 0.24 s matches the consistent
// A1 = A3 = t_s/2 = 50·t_c accounting used here.)
func Example3() (ExampleResult, error) {
	m := Example1Machine()
	sp := space.MustRect(10000, 1000)
	d := deps.Example1Deps()

	tl, err := tiling.Rectangular(10, 10)
	if err != nil {
		return ExampleResult{}, err
	}
	ts, err := tl.TileSpace(sp)
	if err != nil {
		return ExampleResult{}, err
	}
	mapDim := ts.LargestDim()
	vcomm, err := tl.CommVolumeMapped(d, mapDim)
	if err != nil {
		return ExampleResult{}, err
	}
	lin, err := schedule.Overlapping(2, mapDim)
	if err != nil {
		return ExampleResult{}, err
	}
	p, err := lin.Length(ts, deps.Unit(2))
	if err != nil {
		return ExampleResult{}, err
	}
	bytes := vcomm * m.BytesPerElem
	step := StepShape{
		ComputePoints: tl.VolumeInt(),
		SendBytes:     []int64{bytes},
		RecvBytes:     []int64{bytes},
	}
	stepTime := m.OverlappedStep(step)
	total := m.TotalOverlapped(p, step)
	return ExampleResult{
		G:          tl.VolumeInt(),
		VComm:      vcomm,
		P:          p,
		StepTime:   stepTime,
		Total:      total,
		TotalInTc:  total / m.Tc,
		MapDim:     mapDim,
		TileSpace:  ts,
		SchedulePi: lin.Pi,
	}, nil
}
