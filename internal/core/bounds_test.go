package core

import (
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/space"
)

// TestPropSimulatedMakespanBounds checks, on random small unit-dependence
// problems, that both schedules' simulated makespans are bracketed by
// fundamental bounds:
//
//   - lower: the dependence-chain critical path (Σ per-dimension tile
//     counts − n + 1 tiles of pure compute), and one processor's total
//     compute work;
//   - upper: fully serializing every activity in the cluster (all compute
//     plus every message's full phase chain).
func TestPropSimulatedMakespanBounds(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m := model.Example1Machine()
	for trial := 0; trial < 25; trial++ {
		e1 := r.Int63n(4) + 2 // tiles per dim: 2..5
		e2 := r.Int63n(4) + 2
		s1 := r.Int63n(6) + 3 // tile sides: 3..8
		s2 := r.Int63n(6) + 3
		sp := space.MustRect(e1*s1, e2*s2)
		p, err := NewProblem(sp, deps.Unit(2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.Plan(m, PlanOptions{TileSides: ilmath.V(s1, s2)})
		if err != nil {
			t.Fatal(err)
		}
		g := float64(plan.Tiling.VolumeInt()) * m.Tc

		// Lower bounds.
		chainTiles := float64(e1 + e2 - 1)
		chainLower := chainTiles * g
		perProcWork := float64(plan.Mapping.TilesPerProc()) * g

		// Upper bound: everything serialized.
		numTiles := float64(plan.TileSpace.Volume())
		msgs := 0.0
		for _, v := range plan.DepVolumes {
			cross := false
			for d, x := range v.Dir {
				if d != plan.Mapping.MapDim && x != 0 {
					cross = true
				}
			}
			if cross {
				// messages = one per tile pair along that direction; bound
				// loosely by numTiles each.
				msgs += numTiles
			}
		}
		perMsg := m.FillMPI(1000) + m.FillKernel(1000)*2 + m.Wire(1000)*2 + m.FillMPI(1000)
		upper := numTiles*g + msgs*perMsg

		for _, mode := range []sim.Mode{sim.Blocking, sim.Overlapped} {
			res, err := plan.SimulateOne(mode, sim.CapDMA, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < chainLower {
				t.Errorf("trial %d %v: makespan %g below chain bound %g (space %v, tiles %dx%d)",
					trial, mode, res.Makespan, chainLower, sp, s1, s2)
			}
			if res.Makespan < perProcWork {
				t.Errorf("trial %d %v: makespan %g below per-proc work %g",
					trial, mode, res.Makespan, perProcWork)
			}
			if res.Makespan > upper {
				t.Errorf("trial %d %v: makespan %g above serialization bound %g",
					trial, mode, res.Makespan, upper)
			}
		}
	}
}

// TestPropOverlapNeverLosesWhenComputeBound: when the plan is compute-bound
// (A-side dominates) and tiles-per-proc is large relative to the pipeline
// skew, the overlapped schedule must win in simulation.
func TestPropOverlapNeverLosesWhenComputeBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := model.Example1Machine()
	for trial := 0; trial < 15; trial++ {
		tilesAlong := r.Int63n(20) + 30 // deep pipeline
		procs := r.Int63n(3) + 2
		sp := space.MustRect(tilesAlong*10, procs*10)
		p, err := NewProblem(sp, deps.Unit(2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.Plan(m, PlanOptions{TileSides: ilmath.V(10, 10)})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := plan.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if !pred.ComputeBound {
			continue
		}
		simr, err := plan.Simulate(sim.CapDMA)
		if err != nil {
			t.Fatal(err)
		}
		if simr.Overlap.Makespan >= simr.NonOverlap.Makespan {
			t.Errorf("trial %d: compute-bound overlap %g not faster than blocking %g (space %v)",
				trial, simr.Overlap.Makespan, simr.NonOverlap.Makespan, sp)
		}
	}
}

// TestPropPredictionTracksSimulation: on unit-dependence problems the
// analytic predictions stay within 40% of the simulated makespans across
// random shapes (they share the message decomposition; divergence is
// pipeline fill/drain and resource contention the closed form ignores).
func TestPropPredictionTracksSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := model.Example1Machine()
	for trial := 0; trial < 15; trial++ {
		sp := space.MustRect((r.Int63n(10)+5)*10, (r.Int63n(5)+2)*10)
		p, err := NewProblem(sp, deps.Unit(2))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.Plan(m, PlanOptions{TileSides: ilmath.V(10, 10)})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := plan.Predict()
		if err != nil {
			t.Fatal(err)
		}
		simr, err := plan.Simulate(sim.CapDMA)
		if err != nil {
			t.Fatal(err)
		}
		rel := func(a, b float64) float64 {
			d := a - b
			if d < 0 {
				d = -d
			}
			return d / b
		}
		if rel(pred.NonOverlap, simr.NonOverlap.Makespan) > 0.4 {
			t.Errorf("trial %d: blocking prediction %g vs sim %g (space %v)",
				trial, pred.NonOverlap, simr.NonOverlap.Makespan, sp)
		}
		if rel(pred.Overlap, simr.Overlap.Makespan) > 0.4 {
			t.Errorf("trial %d: overlap prediction %g vs sim %g (space %v)",
				trial, pred.Overlap, simr.Overlap.Makespan, sp)
		}
	}
}

// TestPropGrid3DIsTheBoxPlan keeps model.Grid3D, the allocation-light
// Section 5 specialisation the planning service prices, from drifting
// away from the general derivation: on random grids with tile sides and
// heights of at least 2 (Plan grows a side of 1 to contain the
// dependences), its schedule lengths and eq. 3/4 totals equal, bit for
// bit, the Predict of the box plan with sides (TileI, TileJ, V) mapped
// along k.
func TestPropGrid3DIsTheBoxPlan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	machines := []model.Machine{model.PentiumCluster(), model.Example1Machine()}
	for trial := 0; trial < 300; trial++ {
		pi, pj := r.Int63n(4)+1, r.Int63n(4)+1
		g := model.Grid3D{I: pi * (r.Int63n(15) + 2), J: pj * (r.Int63n(15) + 2), K: r.Int63n(4000) + 2, PI: pi, PJ: pj}
		v := r.Int63n(g.K-1) + 2
		m := machines[trial%len(machines)]
		plan := planOf(t, space.MustRect(g.I, g.J, g.K), deps.Stencil3D(), m, ilmath.V(g.TileI(), g.TileJ(), v), 2)
		pred, err := plan.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if pred.PNonOverlap != g.PNonOverlap(v) || pred.POverlap != g.POverlap(v) ||
			pred.NonOverlap != g.PredictNonOverlap(v, m) || pred.Overlap != g.PredictOverlap(v, m) {
			t.Fatalf("%+v, V=%d: plan P=%d/%d T=%v/%v, Grid3D P=%d/%d T=%v/%v", g, v,
				pred.PNonOverlap, pred.POverlap, pred.NonOverlap, pred.Overlap,
				g.PNonOverlap(v), g.POverlap(v), g.PredictNonOverlap(v, m), g.PredictOverlap(v, m))
		}
	}
}
