package core

import (
	"fmt"
	"strings"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/tiling"
)

// Problem is a perfectly nested loop with constant bounds and uniform
// dependences (the paper's algorithm model, Section 2.1).
type Problem struct {
	Space *space.Space
	Deps  *deps.Set
}

// NewProblem validates and builds a Problem.
func NewProblem(s *space.Space, d *deps.Set) (*Problem, error) {
	if s == nil || d == nil {
		return nil, fmt.Errorf("core: nil space or dependence set")
	}
	if s.Dim() != d.Dim() {
		return nil, fmt.Errorf("core: space dimension %d != dependence dimension %d", s.Dim(), d.Dim())
	}
	return &Problem{Space: s, Deps: d}, nil
}

// PlanOptions controls tiling and scheduling choices. The zero value asks
// for everything the paper derives automatically: tile volume from the
// Hodzic–Shang rule g = c·t_s/t_c, communication-minimal rectangular shape,
// mapping along the largest tiled dimension.
type PlanOptions struct {
	// TileSides fixes the rectangular tile side lengths explicitly: one
	// positive side per dimension, or Plan returns an error. Sides too short
	// to contain a dependence are grown until they do.
	TileSides ilmath.Vec
	// TileVolume fixes the tile volume budget g (ignored when TileSides is
	// set). When both are zero the Hodzic–Shang optimum is used.
	TileVolume int64
	// MapDim forces the processor-mapping dimension (default: the largest
	// dimension of the tiled space, per the UET-UCT result).
	MapDim *int
}

// Plan is a fully determined tiled execution: the transformation, the tiled
// space, both time schedules, the processor mapping and the machine model.
type Plan struct {
	Problem *Problem
	Machine model.Machine

	Tiling     *tiling.Tiling
	TileSpace  *space.Space
	TileDeps   *deps.Set
	DepVolumes []tiling.TileDepVolume
	Mapping    *schedule.Mapping

	NonOverlap *schedule.Linear // Π = (1,…,1)
	Overlap    *schedule.Linear // Π = (2,…,2) with 1 at the mapping dim
}

// Plan derives a full execution plan for the problem on machine m.
func (p *Problem) Plan(m model.Machine, opts PlanOptions) (*Plan, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := p.Space.Dim()

	var sides ilmath.Vec
	if opts.TileSides != nil {
		sides = opts.TileSides.Clone()
		if len(sides) != n {
			return nil, fmt.Errorf("core: tile sides %v have %d dimensions, the space has %d", sides, len(sides), n)
		}
		for i, s := range sides {
			if s <= 0 {
				return nil, fmt.Errorf("core: tile sides %v: side %d in dimension %d is not positive", sides, s, i)
			}
		}
	} else {
		g := opts.TileVolume
		if g <= 0 {
			// c of the Hodzic–Shang rule: the n−1 communicating directions
			// left after mapping, at least one.
			c := max(n-1, 1)
			g = int64(m.HodzicShangOptimalG(c))
			if g < 1 {
				g = 1
			}
		}
		var err error
		sides, err = tiling.OptimalRectSides(p.Deps, g)
		if err != nil {
			return nil, fmt.Errorf("core: choosing tile shape: %w", err)
		}
	}
	// Tiles must contain every dependence (|HD| < 1): grow sides to at
	// least maxComponent+1 where needed.
	mc := p.Deps.MaxComponent()
	for i := range sides {
		if sides[i] <= mc[i] {
			sides[i] = mc[i] + 1
		}
	}
	tl, err := tiling.Rectangular(sides...)
	if err != nil {
		return nil, err
	}
	if !tl.Legal(p.Deps) {
		return nil, fmt.Errorf("core: tiling %v illegal for %v", sides, p.Deps)
	}
	ts, err := tl.TileSpace(p.Space)
	if err != nil {
		return nil, err
	}
	td, err := tl.TileDeps(p.Deps)
	if err != nil {
		return nil, err
	}
	dv, err := tl.TileDepVolumes(p.Deps)
	if err != nil {
		return nil, err
	}
	mapDim := ts.LargestDim()
	if opts.MapDim != nil {
		mapDim = *opts.MapDim
	}
	mapping, err := schedule.NewMapping(ts, mapDim)
	if err != nil {
		return nil, err
	}
	ov, err := schedule.Overlapping(n, mapDim)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Problem:    p,
		Machine:    m,
		Tiling:     tl,
		TileSpace:  ts,
		TileDeps:   td,
		DepVolumes: dv,
		Mapping:    mapping,
		NonOverlap: schedule.NonOverlapping(n),
		Overlap:    ov,
	}, nil
}

// stepShape derives the per-step message sizes of an interior processor the
// way the paper's analytic model does (formula (2)): one message per
// non-mapping dimension whose boundary surface is crossed, carrying the
// row's full communication volume g·Σ_j(H·D)_{i,j}, which counts every
// (point, dependence) pair. The simulator instead ships what the runner
// ships (sim.BoxTopology): one message per destination processor with the
// distinct points the directions toward it carry, a diagonal's corner
// folded into the face — Example 1's 11 points per message against the
// formula's 20 — so theory and "experiment" may legitimately diverge by
// that much.
func (pl *Plan) stepShape() model.StepShape {
	rows, err := pl.Tiling.RowCommVolume(pl.Problem.Deps)
	if err != nil {
		// Legality was established at planning time; a failure here would
		// be a programming error.
		panic(err)
	}
	var sends []int64
	for i, r := range rows {
		if i == pl.Mapping.MapDim || r == 0 {
			continue
		}
		sends = append(sends, r*pl.Machine.BytesPerElem)
	}
	recvs := append([]int64(nil), sends...)
	return model.StepShape{
		ComputePoints: pl.Tiling.VolumeInt(),
		SendBytes:     sends,
		RecvBytes:     recvs,
	}
}

// Prediction holds the analytic completion times of both schedules.
type Prediction struct {
	PNonOverlap int64 // schedule length, Π = (1,…,1)
	POverlap    int64 // schedule length, overlapped Π
	NonOverlap  float64
	Overlap     float64
	// Improvement = 1 − Overlap/NonOverlap.
	Improvement  float64
	ComputeBound bool // which side of eq. 4's max dominates
}

// Predict evaluates eq. 3 and eq. 4 for the plan.
func (pl *Plan) Predict() (Prediction, error) {
	unit := deps.Unit(pl.TileSpace.Dim())
	pNo, err := pl.NonOverlap.Length(pl.TileSpace, unit)
	if err != nil {
		return Prediction{}, err
	}
	pOv, err := pl.Overlap.Length(pl.TileSpace, unit)
	if err != nil {
		return Prediction{}, err
	}
	shape := pl.stepShape()
	tNo := pl.Machine.TotalNonOverlapped(pNo, shape)
	tOv := pl.Machine.TotalOverlapped(pOv, shape)
	return Prediction{
		PNonOverlap:  pNo,
		POverlap:     pOv,
		NonOverlap:   tNo,
		Overlap:      tOv,
		Improvement:  1 - tOv/tNo,
		ComputeBound: pl.Machine.ComputeBound(shape),
	}, nil
}

// SimResult pairs the simulated makespans of both schedules.
type SimResult struct {
	NonOverlap sim.Result
	Overlap    sim.Result
	// Improvement = 1 − Overlap/NonOverlap makespans.
	Improvement float64
}

// SimulateOne runs a single (mode, capability) configuration on the
// discrete-event simulator, through sim.BoxTopology: the plan's tiles are
// boxes, so the simulator ships what the runner ships. Set traced to
// capture a full activity timeline (costly on large plans). The space must
// start at the origin.
func (pl *Plan) SimulateOne(mode sim.Mode, cap sim.Capability, traced bool) (sim.Result, error) {
	sp := pl.Problem.Space
	if !sp.Lower.IsZero() {
		return sim.Result{}, fmt.Errorf("core: simulating needs a space that starts at the origin, not %v", sp)
	}
	topo, err := sim.BoxTopology(sp.Extents(), pl.Tiling.Sides(), pl.Mapping.MapDim, pl.Problem.Deps, pl.Machine.BytesPerElem)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Simulate(sim.Config{
		Topo:    topo,
		Machine: pl.Machine,
		Mode:    mode,
		Cap:     cap,
		Trace:   traced,
	})
}

// Simulate runs both schedules on the discrete-event cluster simulator with
// the given hardware capability for the overlapped runtime (the blocking
// baseline always runs copies on the CPU, as blocking primitives do).
func (pl *Plan) Simulate(cap sim.Capability) (SimResult, error) {
	rNo, err := pl.SimulateOne(sim.Blocking, sim.CapNone, false)
	if err != nil {
		return SimResult{}, err
	}
	rOv, err := pl.SimulateOne(sim.Overlapped, cap, false)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		NonOverlap:  rNo,
		Overlap:     rOv,
		Improvement: 1 - rOv.Makespan/rNo.Makespan,
	}, nil
}

// Describe renders a human-readable plan summary.
func (pl *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iteration space : %v (%d points)\n", pl.Problem.Space, pl.Problem.Space.Volume())
	fmt.Fprintf(&b, "dependences     : %v\n", pl.Problem.Deps)
	fmt.Fprintf(&b, "tile sides      : %v (g = %d)\n", pl.Tiling.Sides(), pl.Tiling.VolumeInt())
	fmt.Fprintf(&b, "tiled space     : %v (%d tiles)\n", pl.TileSpace, pl.TileSpace.Volume())
	fmt.Fprintf(&b, "tiled deps      : %v\n", pl.TileDeps)
	fmt.Fprintf(&b, "mapping         : dim %d -> %d processors × %d tiles each\n",
		pl.Mapping.MapDim, pl.Mapping.NumProcs(), pl.Mapping.TilesPerProc())
	fmt.Fprintf(&b, "schedules       : non-overlap %v, overlap %v\n", pl.NonOverlap, pl.Overlap)
	if pred, err := pl.Predict(); err == nil {
		fmt.Fprintf(&b, "predicted       : non-overlap %.6g s (P=%d), overlap %.6g s (P=%d), improvement %.1f%%\n",
			pred.NonOverlap, pred.PNonOverlap, pred.Overlap, pred.POverlap, pred.Improvement*100)
	}
	return b.String()
}
