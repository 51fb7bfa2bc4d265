package model_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/space"
)

// example1Plan is the paper's worked example (Sections 3 and 4): the
// 10000×1000 loop nest of Example 1 on its machine, planned with default
// options. Examples 1 and 3 are this one plan under its two schedules; the
// model formulas only price what the plan derives.
func example1Plan(t *testing.T) (*core.Problem, *core.Plan, core.Prediction) {
	t.Helper()
	p, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(model.Example1Machine(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	return p, plan, pred
}

func relEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// Example 1: g = t_s/t_c = 100 (10×10 tiles), V_comm = 20, mapping along
// dimension 0, Π = (1,1), P = 1099 and the eq.-3 total
// T = 1099·364·t_c = 400036·t_c ≈ 0.4 s.
func TestExample1MatchesPaper(t *testing.T) {
	p, plan, pred := example1Plan(t)
	if g := plan.Tiling.VolumeInt(); g != 100 {
		t.Errorf("g = %d, want 100", g)
	}
	vcomm, err := plan.Tiling.CommVolumeMapped(p.Deps, plan.Mapping.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	if vcomm != 20 {
		t.Errorf("V_comm = %d, want 20", vcomm)
	}
	if pred.PNonOverlap != 1099 {
		t.Errorf("P = %d, want 1099", pred.PNonOverlap)
	}
	if plan.Mapping.MapDim != 0 {
		t.Errorf("mapDim = %d, want 0", plan.Mapping.MapDim)
	}
	if tc := pred.NonOverlap / plan.Machine.Tc; !relEq(tc, 400036) {
		t.Errorf("T = %g·t_c, want 400036·t_c (paper: 0.4 s)", tc)
	}
	if !relEq(pred.NonOverlap, 0.400036) {
		t.Errorf("T = %g s, want 0.400036 s", pred.NonOverlap)
	}
	if !plan.NonOverlap.Pi.Equal(ilmath.V(1, 1)) {
		t.Errorf("Π = %v, want (1,1)", plan.NonOverlap.Pi)
	}
}

// Example 3: the same plan under the overlapping schedule Π = (1,2),
// P = 999 + 2·99 + 1 = 1198. With A1 = A3 = t_s/2 the CPU side is
// 50+100+50 = 200·t_c per step and the wire-inclusive side 228·t_c
// dominates, so T = 1198·228·t_c = 273144·t_c. (The paper prints ≈0.24 s;
// its inline arithmetic is inconsistent.)
func TestExample3MatchesPaper(t *testing.T) {
	_, plan, pred := example1Plan(t)
	if pred.POverlap != 1198 {
		t.Errorf("P = %d, want 1198", pred.POverlap)
	}
	if !plan.Overlap.Pi.Equal(ilmath.V(1, 2)) {
		t.Errorf("Π = %v, want (1,2)", plan.Overlap.Pi)
	}
	if tc := pred.Overlap / plan.Machine.Tc; !relEq(tc, 273144) || pred.ComputeBound {
		t.Errorf("T = %g·t_c (compute bound %v), want 1198·228·t_c = 273144·t_c, communication bound",
			tc, pred.ComputeBound)
	}
	// The headline comparison: the overlapped total is well below the
	// non-overlapped 0.4 s, around the paper's ~0.24 s.
	if pred.Overlap >= 0.3 || pred.Overlap < 0.2 {
		t.Errorf("overlap total %g s, want in [0.2, 0.3) s", pred.Overlap)
	}
	if pred.Improvement < 0.25 || pred.Improvement > 0.5 {
		t.Errorf("improvement = %.0f%%, want 25-50%% (paper: ~40%%)", pred.Improvement*100)
	}
}
