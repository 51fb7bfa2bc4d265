package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
)

func smallFaultSweep() FaultSweep {
	return FaultSweep{
		ID:          "fault-test",
		Grid:        model.Grid3D{I: 8, J: 8, K: 512, PI: 2, PJ: 2},
		Machine:     model.PentiumCluster(),
		Cap:         sim.CapDMA,
		V:           64,
		Seed:        7,
		Intensities: []float64{0, 0.25, 0.5, 1},
	}
}

// TestFaultSweepReplayable: the same (seed, intensities) must give
// bit-identical rows across fresh parallel runs and against the sequential
// reference — the stateless fault model makes worker scheduling invisible.
func TestFaultSweepReplayable(t *testing.T) {
	s := smallFaultSweep()
	a, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sequential(s.Machine, s.points())
	if err != nil {
		t.Fatal(err)
	}
	seq := s.rows(res)
	if len(a) != len(b) || len(a) != len(seq) {
		t.Fatalf("row counts diverge: %d, %d, %d", len(a), len(b), len(seq))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d diverges across parallel runs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != seq[i] {
			t.Errorf("row %d diverges from the sequential reference: %+v vs %+v", i, a[i], seq[i])
		}
	}
}

// TestFaultSweepDegrades: at a fixed seed, both schedules must degrade
// monotonically with intensity.
func TestFaultSweepDegrades(t *testing.T) {
	s := smallFaultSweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDegradation(rows); err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.OverlapX <= 1 || last.BlockingX <= 1 {
		t.Errorf("full intensity left a schedule unharmed: overlap ×%f, blocking ×%f",
			last.OverlapX, last.BlockingX)
	}
}

// TestFaultSweepZeroIntensityMatchesBaseline: the intensity-0 row must be
// exactly the fault-free numbers (slowdown exactly 1.0).
func TestFaultSweepZeroIntensityMatchesBaseline(t *testing.T) {
	s := smallFaultSweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r0 := rows[0]
	if r0.Intensity != 0 {
		t.Fatalf("first row is not the zero-intensity row: %+v", r0)
	}
	if r0.OverlapX != 1 || r0.BlockingX != 1 {
		t.Errorf("zero intensity perturbed the run: overlap ×%v, blocking ×%v", r0.OverlapX, r0.BlockingX)
	}
	ov, err := sim.SimulateGrid(s.Grid, s.V, s.Machine, sim.Overlapped, s.Cap, sim.GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := sim.SimulateGrid(s.Grid, s.V, s.Machine, sim.Blocking, sim.CapNone, sim.GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r0.Overlap != ov.Makespan || r0.Blocking != bl.Makespan {
		t.Errorf("zero-intensity row (%g, %g) differs from the plain simulation (%g, %g)",
			r0.Overlap, r0.Blocking, ov.Makespan, bl.Makespan)
	}
}

// TestFaultSweepValidation: malformed sweeps are rejected up front.
func TestFaultSweepValidation(t *testing.T) {
	s := smallFaultSweep()
	s.Intensities = []float64{0.5, 0.25}
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Error("descending intensities accepted")
	}
	s = smallFaultSweep()
	s.Intensities = nil
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Error("empty intensity list accepted")
	}
	s = smallFaultSweep()
	s.V = 0
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Error("zero tile height accepted")
	}
}

// TestFaultSweepDeadlineConsistent: on a real sweep the retransmit-budget
// and deadline-budget columns must agree at every intensity, the zero row
// must be clean, and high enough intensity must actually exhaust the cap —
// otherwise the cross-check would pass vacuously.
func TestFaultSweepDeadlineConsistent(t *testing.T) {
	s := smallFaultSweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDeadlineConsistency(rows); err != nil {
		t.Fatal(err)
	}
	r0 := rows[0]
	if r0.WorstResends != 0 || r0.WorstChain != 0 || r0.BudgetHit || r0.DeadlineHit {
		t.Errorf("zero intensity shows retransmit activity: %+v", r0)
	}
	last := rows[len(rows)-1]
	if last.WorstResends == 0 {
		t.Errorf("full intensity produced no retransmits at all: %+v", last)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].WorstResends < rows[i-1].WorstResends {
			t.Errorf("worst resend count shrinks %d→%d as intensity rises %g→%g",
				rows[i-1].WorstResends, rows[i].WorstResends, rows[i-1].Intensity, rows[i].Intensity)
		}
	}
}

// TestFaultSweepDeadlineBudgetHit drives the cross-check columns through
// the non-vacuous branch: the Default plan's 10% loss practically never
// chains 4 losses in a row on a 4-rank grid, so a hot plan (99% loss at
// intensity 1) forces some link to exhaust MaxResend — and the moment it
// does, its retry chain must equal the full deadline budget exactly, making
// BudgetHit and DeadlineHit flip together.
func TestFaultSweepDeadlineBudgetHit(t *testing.T) {
	s := smallFaultSweep()
	hot := fault.Plan{
		Seed: s.Seed, Intensity: 1,
		LossProb: 0.99, MaxResend: 4, TimeoutWire: 3, BackoffFactor: 2,
	}
	worst, chain, budgetHit, deadlineHit := s.deadline(hot)
	if worst != hot.MaxResend {
		t.Fatalf("worst resends = %d under 99%% loss, want the cap %d", worst, hot.MaxResend)
	}
	if !budgetHit || !deadlineHit {
		t.Errorf("cap reached but budgetHit=%v deadlineHit=%v", budgetHit, deadlineHit)
	}
	if want := retryChain(hot, hot.MaxResend); chain != want {
		t.Errorf("worst chain %g != full deadline budget %g", chain, want)
	}
}

// TestCheckDeadlineConsistencyRejects: the checker fires when the two
// budget columns disagree or the budget un-trips at a higher intensity.
func TestCheckDeadlineConsistencyRejects(t *testing.T) {
	good := []FaultRow{
		{Intensity: 0},
		{Intensity: 1, WorstResends: 4, WorstChain: 45, BudgetHit: true, DeadlineHit: true},
	}
	if err := CheckDeadlineConsistency(good); err != nil {
		t.Errorf("consistent rows rejected: %v", err)
	}
	disagree := []FaultRow{
		{Intensity: 1, WorstResends: 4, WorstChain: 45, BudgetHit: true, DeadlineHit: false},
	}
	if err := CheckDeadlineConsistency(disagree); err == nil {
		t.Error("budget/deadline disagreement passed")
	}
	recovers := []FaultRow{
		{Intensity: 0.5, WorstResends: 4, WorstChain: 45, BudgetHit: true, DeadlineHit: true},
		{Intensity: 1},
	}
	if err := CheckDeadlineConsistency(recovers); err == nil {
		t.Error("a budget that un-trips at higher intensity passed")
	}
	if err := CheckDeadlineConsistency(nil); err == nil {
		t.Error("empty sweep passed")
	}
}

// TestCheckDegradationRejects: the checker actually fires on a repair.
func TestCheckDegradationRejects(t *testing.T) {
	good := []FaultRow{
		{Intensity: 0, Overlap: 1, Blocking: 2, OverlapX: 1, BlockingX: 1},
		{Intensity: 1, Overlap: 1.5, Blocking: 3, OverlapX: 1.5, BlockingX: 1.5},
	}
	if err := CheckDegradation(good); err != nil {
		t.Errorf("monotone rows rejected: %v", err)
	}
	bad := []FaultRow{
		{Intensity: 0, Overlap: 1, Blocking: 2, OverlapX: 1, BlockingX: 1},
		{Intensity: 1, Overlap: 0.9, Blocking: 3, OverlapX: 0.9, BlockingX: 1.5},
	}
	if err := CheckDegradation(bad); err == nil {
		t.Error("an intensity step that repairs the overlapped schedule passed")
	}
	if err := CheckDegradation(nil); err == nil {
		t.Error("empty sweep passed")
	}
}

// TestBadIntensitiesRejected: both fault-driven sweeps reject a NaN,
// negative or above-one intensity before any DES work. fault.Default
// treats the first two as no faults at all, so an accepted row would
// silently report fault-free makespans (and pass CheckDegradation).
func TestBadIntensitiesRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"negative", []float64{-0.5}},
		{"NaN", []float64{math.NaN()}},
		{"negative then NaN", []float64{-0.5, math.NaN()}},
		{"above one", []float64{0, 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := sim.NewCache()
			fs := smallFaultSweep()
			fs.Intensities, fs.Cache = tc.xs, c
			if _, err := fs.RunCtx(context.Background()); err == nil {
				t.Errorf("fault sweep accepted intensities %v", tc.xs)
			}
			rs := testRecoverySweep()
			rs.Intensities, rs.Cache = tc.xs, c
			if _, err := rs.RunCtx(context.Background()); err == nil {
				t.Errorf("recovery sweep accepted intensities %v", tc.xs)
			}
			if n := c.Stats().Evals; n != 0 {
				t.Errorf("rejected sweeps still ran %d DES evaluations", n)
			}
		})
	}
}
