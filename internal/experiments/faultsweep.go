package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
)

// FaultSweep degrades one (grid, tile height) configuration under an
// increasing fault intensity at a fixed seed: the same stragglers, lossy
// links and pauses hit both schedules, only harder as intensity grows.
// The row set answers the robustness question the fault model exists for:
// does the overlapped schedule keep its advantage when the cluster
// misbehaves, and how gracefully does each schedule degrade?
type FaultSweep struct {
	ID      string
	Grid    model.Grid3D
	Machine model.Machine
	Cap     sim.Capability
	// V is the tile height both schedules run at — typically each sweep's
	// optimum, so degradation is measured from the best configuration.
	V    int64
	Seed uint64
	// Intensities must be ascending; 0 reproduces the fault-free numbers.
	Intensities []float64
	// Cache optionally memoizes points across runs (keyed on the plan).
	Cache *sim.Cache
}

// FaultRow is one intensity step of a degradation sweep.
type FaultRow struct {
	Intensity float64
	Overlap   float64 // makespan, seconds
	Blocking  float64
	OverlapX  float64 // slowdown vs the fault-free makespan (1.0 = unharmed)
	BlockingX float64

	// Deadline cross-check columns, derived from the fault plan alone
	// (no simulation): WorstResends is the largest per-link retransmit
	// count over every ordered rank pair, WorstChain that link's
	// accumulated retry delay as a multiple of one nominal wire time.
	// BudgetHit marks intensities where some link exhausts MaxResend;
	// DeadlineHit marks intensities where WorstChain reaches the full
	// retry-chain delay a runtime deadline would be provisioned for.
	// CheckDeadlineConsistency asserts the two flags agree.
	WorstResends int
	WorstChain   float64
	BudgetHit    bool
	DeadlineHit  bool
}

// points lays out the simulations a sweep needs: the fault-free baseline
// pair first, then an (overlapped, blocking) pair per intensity.
func (s FaultSweep) points() []point {
	pts := pair(s.Grid, s.V, s.Cap, sim.GridOpts{})
	for _, in := range s.Intensities {
		pts = append(pts, pair(s.Grid, s.V, s.Cap, sim.GridOpts{Fault: fault.Default(s.Seed, in)})...)
	}
	return pts
}

// rows assembles the row set from results laid out by points.
func (s FaultSweep) rows(res []sim.Result) []FaultRow {
	baseOv, baseBl := res[0].Makespan, res[1].Makespan
	rows := make([]FaultRow, len(s.Intensities))
	for i, in := range s.Intensities {
		ov, bl := res[2+2*i].Makespan, res[3+2*i].Makespan
		rows[i] = FaultRow{
			Intensity: in,
			Overlap:   ov, Blocking: bl,
			OverlapX: ov / baseOv, BlockingX: bl / baseBl,
		}
		rows[i].WorstResends, rows[i].WorstChain, rows[i].BudgetHit, rows[i].DeadlineHit =
			s.deadline(fault.Default(s.Seed, in))
	}
	return rows
}

// retryChain is the accumulated retransmission delay of a k-attempt-deep
// retry chain, in multiples of one nominal wire time: Σ_{i<k} RetryDelay(1, i).
// Each term is positive, so the chain is strictly increasing in k — which is
// exactly why "out of resends" and "out of deadline" coincide.
func retryChain(fp fault.Plan, k int) float64 {
	var d float64
	for i := 0; i < k; i++ {
		d += fp.RetryDelay(1, i)
	}
	return d
}

// deadline derives the cross-check columns for one fault plan. The scan
// covers every ordered rank pair — a superset of the links the schedule
// actually uses, deliberately: the check is about the fault plan's
// retransmit arithmetic, not the traffic pattern, and the superset keeps it
// independent of tile geometry. A link exhausts the retransmit budget when
// Resends hits MaxResend; the matching deadline budget is the delay of a
// full retry chain, so DeadlineHit compares the worst observed chain
// against retryChain(fp, MaxResend).
func (s FaultSweep) deadline(fp fault.Plan) (worstResends int, worstChain float64, budgetHit, deadlineHit bool) {
	ranks := s.Grid.PI * s.Grid.PJ
	for from := int64(0); from < ranks; from++ {
		for to := int64(0); to < ranks; to++ {
			if to == from {
				continue
			}
			if k := fp.Resends(from, to); k > worstResends {
				worstResends = k
			}
		}
	}
	worstChain = retryChain(fp, worstResends)
	if fp.MaxResend > 0 {
		budgetHit = worstResends == fp.MaxResend
		deadlineHit = worstChain >= retryChain(fp, fp.MaxResend)
	}
	return worstResends, worstChain, budgetHit, deadlineHit
}

// checkFaultSweep rejects a non-positive tile height and a fault-intensity
// list that is empty or not ascending within [0, 1]. fault.Default treats
// a negative or NaN intensity as no faults at all, so without this check
// such a row would silently report the fault-free makespans.
func checkFaultSweep(kind, id string, v int64, xs []float64) error {
	if v <= 0 {
		return fmt.Errorf("experiments: %s sweep %s: non-positive tile height %d", kind, id, v)
	}
	if len(xs) == 0 {
		return fmt.Errorf("experiments: %s sweep %s has no intensities", kind, id)
	}
	for i, x := range xs {
		if !(x >= 0 && x <= 1) {
			return fmt.Errorf("experiments: %s sweep %s: intensity %g outside [0, 1]", kind, id, x)
		}
		if i > 0 && x < xs[i-1] {
			return fmt.Errorf("experiments: %s sweep %s: intensities not ascending at %d", kind, id, i)
		}
	}
	return nil
}

// RunCtx evaluates the sweep through evalGrid. The fault model is
// stateless in simulation order, so the rows are identical to the
// sequential reference's regardless of worker scheduling.
func (s FaultSweep) RunCtx(ctx context.Context) ([]FaultRow, error) {
	if err := checkFaultSweep("fault", s.ID, s.V, s.Intensities); err != nil {
		return nil, err
	}
	res, err := evalGrid(ctx, s.Cache, s.ID, s.Machine, s.points())
	if err != nil {
		return nil, err
	}
	return s.rows(res), nil
}

// CheckDegradation asserts graceful degradation on a completed sweep: no
// intensity step may repair a schedule (makespans monotonically
// non-decreasing in intensity, and never below the fault-free baseline).
// The fault model is built so per-activity durations are monotone in
// intensity at a fixed seed, which is what makes this assertable at all.
func CheckDegradation(rows []FaultRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: empty degradation sweep")
	}
	for i, r := range rows {
		if r.OverlapX < 1 || r.BlockingX < 1 {
			return fmt.Errorf("experiments: intensity %g beats the fault-free baseline (overlap ×%.6f, blocking ×%.6f)",
				r.Intensity, r.OverlapX, r.BlockingX)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.Overlap < prev.Overlap {
			return fmt.Errorf("experiments: overlapped makespan improves from %g to %g as intensity rises %g→%g",
				prev.Overlap, r.Overlap, prev.Intensity, r.Intensity)
		}
		if r.Blocking < prev.Blocking {
			return fmt.Errorf("experiments: blocking makespan improves from %g to %g as intensity rises %g→%g",
				prev.Blocking, r.Blocking, prev.Intensity, r.Intensity)
		}
	}
	return nil
}

// CheckDeadlineConsistency cross-checks the retransmit budget against the
// deadline budget on a completed sweep: an intensity must exhaust the
// retransmit cap (some link reaches MaxResend) exactly when its worst retry
// chain reaches the delay a runtime deadline would be provisioned for. Both
// flags come from the same fault plan but through different arithmetic —
// attempt counting versus accumulated backoff delay — so agreement is a
// real invariant, not a tautology: it holds because the retry chain is a
// strictly increasing prefix sum. The check also asserts that tripping the
// budget is monotone in intensity (Resends is monotone at a fixed seed), so
// there is a single smallest intensity past which the runtime deadline
// fires.
func CheckDeadlineConsistency(rows []FaultRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: empty deadline sweep")
	}
	for i, r := range rows {
		if r.BudgetHit != r.DeadlineHit {
			return fmt.Errorf("experiments: intensity %g: retransmit budget hit=%v but deadline hit=%v (worst chain %.3f× wire over %d resends)",
				r.Intensity, r.BudgetHit, r.DeadlineHit, r.WorstChain, r.WorstResends)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if prev.BudgetHit && !r.BudgetHit {
			return fmt.Errorf("experiments: retransmit budget recovers as intensity rises %g→%g",
				prev.Intensity, r.Intensity)
		}
		if r.WorstChain < prev.WorstChain {
			return fmt.Errorf("experiments: worst retry chain shrinks from %.3f× to %.3f× as intensity rises %g→%g",
				prev.WorstChain, r.WorstChain, prev.Intensity, r.Intensity)
		}
	}
	return nil
}

// FormatFaultSweep renders the degradation sweep as an aligned text table.
func FormatFaultSweep(s FaultSweep, rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degradation sweep %s: %dx%dx%d on %dx%d, V=%d, seed=%d\n",
		s.ID, s.Grid.I, s.Grid.J, s.Grid.K, s.Grid.PI, s.Grid.PJ, s.V, s.Seed)
	fmt.Fprintf(&b, "%10s %14s %14s %10s %10s\n",
		"intensity", "overlap(s)", "blocking(s)", "overlap×", "blocking×")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %14.6f %14.6f %9.3f× %9.3f×\n",
			r.Intensity, r.Overlap, r.Blocking, r.OverlapX, r.BlockingX)
	}
	return b.String()
}

// FormatFaultDeadline renders the deadline cross-check columns of a sweep:
// the worst per-link retransmit count, the matching retry-chain delay (as a
// multiple of one wire time), and whether each intensity exhausts the
// retransmit budget / trips the provisioned deadline.
func FormatFaultDeadline(s FaultSweep, rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Deadline cross-check %s: seed=%d\n", s.ID, s.Seed)
	fmt.Fprintf(&b, "%10s %8s %12s %10s %10s\n",
		"intensity", "resends", "chain(×wire)", "budget", "deadline")
	hit := func(v bool) string {
		if v {
			return "HIT"
		}
		return "ok"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.2f %8d %12.3f %10s %10s\n",
			r.Intensity, r.WorstResends, r.WorstChain, hit(r.BudgetHit), hit(r.DeadlineHit))
	}
	return b.String()
}
