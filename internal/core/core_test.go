package core

import (
	"strings"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/space"
)

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil, deps.Unit(2)); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewProblem(space.MustRect(4, 4), nil); err == nil {
		t.Error("nil deps accepted")
	}
	if _, err := NewProblem(space.MustRect(4, 4), deps.Unit(3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewProblem(space.MustRect(4, 4), deps.Unit(2)); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func example1Problem(t *testing.T) *Problem {
	t.Helper()
	p, err := NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanExample1Defaults(t *testing.T) {
	// With the Example-1 machine the Hodzic–Shang rule gives g = 100 and
	// the optimal rectangular shape is square: 10×10 tiles, map along the
	// larger tiled dimension (dim 0).
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sides := plan.Tiling.Sides()
	if !sides.Equal(ilmath.V(10, 10)) {
		t.Errorf("sides = %v, want (10, 10)", sides)
	}
	if plan.Mapping.MapDim != 0 {
		t.Errorf("mapDim = %d, want 0", plan.Mapping.MapDim)
	}
	if plan.TileSpace.Volume() != 1000*100 {
		t.Errorf("tile space volume = %d", plan.TileSpace.Volume())
	}
	if !plan.Overlap.Pi.Equal(ilmath.V(1, 2)) {
		t.Errorf("overlap Π = %v, want (1,2)", plan.Overlap.Pi)
	}
}

func TestPlanExplicitSides(t *testing.T) {
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{TileSides: ilmath.V(20, 5)})
	if err != nil {
		t.Fatal(err)
	}
	sides := plan.Tiling.Sides()
	if !sides.Equal(ilmath.V(20, 5)) {
		t.Errorf("sides = %v", sides)
	}
}

func TestPlanGrowsTinyTiles(t *testing.T) {
	// Sides smaller than the dependences must be grown to contain them.
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{TileSides: ilmath.V(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sides := plan.Tiling.Sides()
	if sides[0] < 2 || sides[1] < 2 {
		t.Errorf("sides %v do not contain dependences", sides)
	}
}

func TestPlanRejectsBadTileSides(t *testing.T) {
	// Explicit sides must have one positive entry per dimension; the
	// dependence-containment growth must not hide a bad one.
	p := example1Problem(t)
	for _, c := range []struct {
		sides ilmath.Vec
		want  string
	}{
		{ilmath.V(4, 4, 4), "core: tile sides (4, 4, 4) have 3 dimensions, the space has 2"},
		{ilmath.V(4), "core: tile sides (4) have 1 dimensions, the space has 2"},
		{ilmath.V(), "core: tile sides () have 0 dimensions, the space has 2"},
		{ilmath.V(0, 4), "core: tile sides (0, 4): side 0 in dimension 0 is not positive"},
		{ilmath.V(4, -2), "core: tile sides (4, -2): side -2 in dimension 1 is not positive"},
	} {
		_, err := p.Plan(model.Example1Machine(), PlanOptions{TileSides: c.sides})
		if err == nil || err.Error() != c.want {
			t.Errorf("Plan(TileSides %v) error = %v, want %q", c.sides, err, c.want)
		}
	}
	// The caller's sides are not grown in place.
	tiny := ilmath.V(1, 1)
	if _, err := p.Plan(model.Example1Machine(), PlanOptions{TileSides: tiny}); err != nil {
		t.Fatal(err)
	}
	if !tiny.Equal(ilmath.V(1, 1)) {
		t.Errorf("Plan changed the caller's TileSides to %v", tiny)
	}
}

func TestPlanVolumeBudget(t *testing.T) {
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{TileVolume: 400})
	if err != nil {
		t.Fatal(err)
	}
	if g := plan.Tiling.VolumeInt(); g > 400 {
		t.Errorf("tile volume %d exceeds budget 400", g)
	}
	sides := plan.Tiling.Sides()
	if sides[0] != sides[1] {
		t.Errorf("symmetric deps should give square tiles, got %v", sides)
	}
}

func TestPlanForcedMapDim(t *testing.T) {
	p := example1Problem(t)
	one := 1
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{MapDim: &one})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mapping.MapDim != 1 {
		t.Errorf("mapDim = %d, want forced 1", plan.Mapping.MapDim)
	}
	if !plan.Overlap.Pi.Equal(ilmath.V(2, 1)) {
		t.Errorf("overlap Π = %v, want (2,1)", plan.Overlap.Pi)
	}
}

func TestPredictExample1(t *testing.T) {
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if pred.PNonOverlap != 1099 {
		t.Errorf("P(non-overlap) = %d, want 1099 (paper)", pred.PNonOverlap)
	}
	if pred.POverlap != 1198 {
		t.Errorf("P(overlap) = %d, want 1198 (paper)", pred.POverlap)
	}
	if pred.Overlap >= pred.NonOverlap {
		t.Errorf("overlap %g not better than non-overlap %g", pred.Overlap, pred.NonOverlap)
	}
	if pred.Improvement < 0.2 || pred.Improvement > 0.6 {
		t.Errorf("improvement %.0f%% outside plausible band", pred.Improvement*100)
	}
	// Plan-level message sizes follow formula (2): one 80-byte message each
	// way per step, so the eq.-3 total is the paper's 0.400036 s exactly.
	if !almostEq(pred.NonOverlap, 0.400036, 1e-9) {
		t.Errorf("non-overlap total %g s, want 0.400036 s (paper Example 1)", pred.NonOverlap)
	}
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}

func TestSimulateSmallPlanAgreesWithPrediction(t *testing.T) {
	// Unit dependences: theory and simulator use identical message
	// decompositions, so makespans should land within ~25% of each other
	// (the residual gap is pipeline fill/drain, which eq. 3/4 ignore).
	p, err := NewProblem(space.MustRect(400, 80), deps.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{TileSides: ilmath.V(10, 10)})
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
	if simr.Overlap.Makespan >= simr.NonOverlap.Makespan {
		t.Errorf("simulated overlap %g not faster than blocking %g",
			simr.Overlap.Makespan, simr.NonOverlap.Makespan)
	}
	rel := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d / b
	}
	if rel(simr.NonOverlap.Makespan, pred.NonOverlap) > 0.25 {
		t.Errorf("blocking: simulated %g vs predicted %g diverge",
			simr.NonOverlap.Makespan, pred.NonOverlap)
	}
	if rel(simr.Overlap.Makespan, pred.Overlap) > 0.25 {
		t.Errorf("overlap: simulated %g vs predicted %g diverge",
			simr.Overlap.Makespan, pred.Overlap)
	}
}

// TestSimulateDiagonalDepsLooseAgreement: under Example 1's diagonal
// dependences the plan is the 2-D runner's strip deployment. The corner
// rides in the face message, so a 10×10-tiled plan on 8 strips ships one
// message per tile and strip boundary and simulates exactly as the box
// topology of the deployment, and overlap still wins.
func TestSimulateDiagonalDepsLooseAgreement(t *testing.T) {
	p, err := NewProblem(space.MustRect(400, 80), deps.Example1Deps())
	if err != nil {
		t.Fatal(err)
	}
	m := model.Example1Machine()
	plan, err := p.Plan(m, PlanOptions{TileSides: ilmath.V(10, 10)})
	if err != nil {
		t.Fatal(err)
	}
	simr, err := plan.Simulate(sim.CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	if simr.Overlap.Makespan >= simr.NonOverlap.Makespan {
		t.Error("overlap not faster under diagonal deps")
	}
	// The deployment: 40 tiles of 10 rows on each of 8 strips of 10
	// columns, mapped along the rows.
	topo, err := sim.BoxTopology(ilmath.V(400, 80), ilmath.V(10, 80/8), 0, deps.Example1Deps(), m.BytesPerElem)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  sim.Result
		mode sim.Mode
		cap  sim.Capability
	}{{simr.NonOverlap, sim.Blocking, sim.CapNone}, {simr.Overlap, sim.Overlapped, sim.CapDMA}} {
		want, err := sim.Simulate(sim.Config{Topo: topo, Machine: m, Mode: c.mode, Cap: c.cap})
		if err != nil {
			t.Fatal(err)
		}
		if c.got.Makespan != want.Makespan || c.got.NumMessages != 7*40 || want.NumMessages != 7*40 {
			t.Errorf("%v: plan %g s in %d messages, deployment %g s in %d, want %d messages each",
				c.mode, c.got.Makespan, c.got.NumMessages, want.Makespan, want.NumMessages, 7*40)
		}
	}
}

func TestDescribe(t *testing.T) {
	p := example1Problem(t)
	plan, err := p.Plan(model.Example1Machine(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Describe()
	for _, want := range []string{"tile sides", "(10, 10)", "tiled space", "mapping", "improvement"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestPlanInvalidMachine(t *testing.T) {
	p := example1Problem(t)
	bad := model.Example1Machine()
	bad.Tc = 0
	if _, err := p.Plan(bad, PlanOptions{}); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestPlan3DStencil(t *testing.T) {
	p, err := NewProblem(space.MustRect(16, 16, 512), deps.Stencil3D())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(model.PentiumCluster(), PlanOptions{TileSides: ilmath.V(4, 4, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mapping.MapDim != 2 {
		t.Errorf("mapDim = %d, want 2 (largest)", plan.Mapping.MapDim)
	}
	if plan.Mapping.NumProcs() != 16 {
		t.Errorf("procs = %d, want 16", plan.Mapping.NumProcs())
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Improvement <= 0 {
		t.Errorf("no improvement on 3-D stencil: %+v", pred)
	}
	simr, err := plan.Simulate(sim.CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	if simr.Improvement <= 0 {
		t.Errorf("no simulated improvement: %+v", simr.Improvement)
	}
}
