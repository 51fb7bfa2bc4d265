package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/sim"
)

// RecoverySweep crosses checkpoint interval with fault intensity and models
// the expected completion time of a supervised run (internal/supervise) on
// one (grid, tile height) configuration: the classic Young/Daly tradeoff.
// Checkpointing often costs time up front; crashing costs the rework
// between the last snapshot boundary and the failure point plus a restart.
// Small intervals overpay the first, large intervals the second, so at any
// positive failure rate the completion curve over intervals is a tradeoff
// with an interior sweet spot that moves toward shorter intervals as the
// cluster gets less reliable.
//
// The compute-time inputs come from the DES: the fault-free makespan
// anchors the inflation column, and each intensity's degraded makespan (the
// same seeded fault plan the degradation sweep uses) supplies the useful
// work time that failures interrupt. The recovery arithmetic on top is
// deliberately the expectation model, not a crash simulation — it is the
// curve an operator consults to pick -checkpoint-every before a run. Its
// costs are fixed fractions of the fault-free makespan t0: writing one
// checkpoint generation costs CkCost = t0/200 (snapshots are cheap but not
// free), one restart costs Restart = t0/50 (detection, backoff and world
// rebuild, the supervisor's MTTR floor), and the mean time between rank
// failures at intensity 1 is MTBF = t0/2 of useful work (about two crashes
// per run); intensity x scales the failure rate to x/MTBF.
type RecoverySweep struct {
	ID      string
	Grid    model.Grid3D
	Machine model.Machine
	Cap     sim.Capability
	// V is the tile height, typically the overlapped optimum.
	V    int64
	Seed uint64
	// Intervals are the checkpoint intervals to cross, in tiles (the unit
	// -checkpoint-every takes). Ascending.
	Intervals []int64
	// Intensities are the fault intensities to cross, ascending; include 0
	// for the checkpoint-overhead-only column.
	Intensities []float64
	// Cache optionally memoizes the DES points across runs.
	Cache *sim.Cache
}

// RecoveryRow is one (intensity, interval) cell of the tradeoff.
type RecoveryRow struct {
	Intensity float64
	Interval  int64 // tiles between checkpoints
	// FaultFree is the no-fault no-checkpoint DES makespan (seconds); the
	// inflation denominator, identical on every row.
	FaultFree float64
	// Faulty is the DES makespan under this intensity's fault plan, without
	// any recovery machinery (seconds).
	Faulty float64
	// CkOverhead = ceil(tiles/interval) × CkCost (seconds).
	CkOverhead float64
	// ExpFailures = intensity × Faulty / MTBF.
	ExpFailures float64
	// Rework = ExpFailures × (interval/2 × step + Restart): half an
	// interval of recomputation per crash on average, plus the rebuild
	// (seconds).
	Rework float64
	// Completion = Faulty + CkOverhead + Rework (seconds).
	Completion float64
	// InflationX = Completion / FaultFree.
	InflationX float64
	// YoungOpt is Young's approximation of the optimal interval,
	// √(2·CkCost·MTBF/intensity)/step, in tiles (0 at intensity 0).
	YoungOpt float64
}

func (s RecoverySweep) validate() error {
	if len(s.Intervals) == 0 {
		return fmt.Errorf("experiments: recovery sweep %s has no intervals", s.ID)
	}
	for i, iv := range s.Intervals {
		if iv <= 0 {
			return fmt.Errorf("experiments: recovery sweep %s: non-positive interval %d", s.ID, iv)
		}
		if i > 0 && iv <= s.Intervals[i-1] {
			return fmt.Errorf("experiments: recovery sweep %s: intervals not strictly ascending at %d", s.ID, i)
		}
	}
	return checkFaultSweep("recovery", s.ID, s.V, s.Intensities)
}

// points lays out the sweep's DES work: the fault-free anchor, then the
// overlapped schedule under each intensity's fault plan.
func (s RecoverySweep) points() []point {
	pts := []point{{s.Grid, s.V, sim.Overlapped, s.Cap, sim.GridOpts{}}}
	for _, x := range s.Intensities {
		pts = append(pts, point{s.Grid, s.V, sim.Overlapped, s.Cap, sim.GridOpts{Fault: fault.Default(s.Seed, x)}})
	}
	return pts
}

// RunCtx evaluates the sweep: one DES point per intensity (plus the
// fault-free anchor) through evalGrid, then the recovery expectation per
// interval on top.
func (s RecoverySweep) RunCtx(ctx context.Context) ([]RecoveryRow, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	res, err := evalGrid(ctx, s.Cache, s.ID, s.Machine, s.points())
	if err != nil {
		return nil, err
	}
	return s.rows(res), nil
}

// rows applies the recovery expectation model to results laid out by
// points.
func (s RecoverySweep) rows(res []sim.Result) []RecoveryRow {
	t0 := res[0].Makespan
	ckCost, restart, mtbf := t0/200, t0/50, t0/2
	tiles := s.Grid.KTiles(s.V)
	rows := make([]RecoveryRow, 0, len(s.Intensities)*len(s.Intervals))
	for i, x := range s.Intensities {
		faulty := res[1+i].Makespan
		step := faulty / float64(tiles)
		failures := x * faulty / mtbf
		for _, iv := range s.Intervals {
			row := RecoveryRow{
				Intensity:   x,
				Interval:    iv,
				FaultFree:   t0,
				Faulty:      faulty,
				CkOverhead:  float64((tiles+iv-1)/iv) * ckCost,
				ExpFailures: failures,
			}
			row.Rework = failures * (float64(iv)/2*step + restart)
			row.Completion = faulty + row.CkOverhead + row.Rework
			row.InflationX = row.Completion / t0
			if x > 0 {
				row.YoungOpt = math.Sqrt(2*ckCost*mtbf/x) / step
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// BestIntervals returns, per intensity in row order, the interval with the
// lowest modeled completion time (ties to the shorter interval).
func BestIntervals(rows []RecoveryRow) map[float64]int64 {
	best := make(map[float64]int64)
	bestC := make(map[float64]float64)
	for _, r := range rows {
		if c, ok := bestC[r.Intensity]; !ok || r.Completion < c {
			bestC[r.Intensity] = r.Completion
			best[r.Intensity] = r.Interval
		}
	}
	return best
}

// CheckRecoveryTradeoff asserts the Young/Daly signature on a completed
// sweep: completion never beats the fault-free anchor; at a fixed interval
// completion is non-decreasing in intensity; at intensity 0 longer
// intervals only help (checkpoint overhead is all there is); and the best
// interval is non-increasing as intensity rises — a souring cluster is
// never a reason to checkpoint less often. The last property holds because
// raising the failure rate adds a cost that grows with the interval, which
// can only move the minimum leftward.
func CheckRecoveryTradeoff(rows []RecoveryRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: empty recovery sweep")
	}
	byCell := make(map[int64][]RecoveryRow)
	var order []float64
	var ivOrder []int64
	seen := make(map[float64]bool)
	for _, r := range rows {
		if r.InflationX < 1 {
			return fmt.Errorf("experiments: intensity %g interval %d beats the fault-free anchor (×%.6f)",
				r.Intensity, r.Interval, r.InflationX)
		}
		if _, ok := byCell[r.Interval]; !ok {
			ivOrder = append(ivOrder, r.Interval)
		}
		byCell[r.Interval] = append(byCell[r.Interval], r)
		if !seen[r.Intensity] {
			seen[r.Intensity] = true
			order = append(order, r.Intensity)
		}
	}
	for _, iv := range ivOrder {
		col := byCell[iv]
		for i := 1; i < len(col); i++ {
			if col[i].Completion < col[i-1].Completion {
				return fmt.Errorf("experiments: interval %d: completion improves %g→%g as intensity rises %g→%g",
					iv, col[i-1].Completion, col[i].Completion, col[i-1].Intensity, col[i].Intensity)
			}
		}
	}
	var prevZero *RecoveryRow
	for i := range rows {
		r := &rows[i]
		if r.Intensity != 0 {
			continue
		}
		if prevZero != nil && r.Completion > prevZero.Completion {
			return fmt.Errorf("experiments: at intensity 0 a longer interval costs more (%d: %g vs %d: %g)",
				r.Interval, r.Completion, prevZero.Interval, prevZero.Completion)
		}
		prevZero = r
	}
	best := BestIntervals(rows)
	for i := 1; i < len(order); i++ {
		if best[order[i]] > best[order[i-1]] {
			return fmt.Errorf("experiments: best interval lengthens %d→%d as intensity rises %g→%g",
				best[order[i-1]], best[order[i]], order[i-1], order[i])
		}
	}
	return nil
}

// FormatRecovery renders the tradeoff as one block per intensity.
func FormatRecovery(s RecoverySweep, rows []RecoveryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery sweep %s: %dx%dx%d on %dx%d, V=%d, seed=%d\n",
		s.ID, s.Grid.I, s.Grid.J, s.Grid.K, s.Grid.PI, s.Grid.PJ, s.V, s.Seed)
	if len(rows) > 0 {
		fmt.Fprintf(&b, "fault-free anchor: %.6fs\n", rows[0].FaultFree)
	}
	best := BestIntervals(rows)
	var lastIntensity float64 = -1
	for _, r := range rows {
		if r.Intensity != lastIntensity {
			lastIntensity = r.Intensity
			fmt.Fprintf(&b, "intensity %.2f (faulty %.6fs, E[failures]=%.2f, Young≈%.1f tiles)\n",
				r.Intensity, r.Faulty, r.ExpFailures, r.YoungOpt)
			fmt.Fprintf(&b, "%14s %12s %12s %14s %10s\n",
				"interval(tiles)", "ck_ovh(s)", "rework(s)", "completion(s)", "inflation")
		}
		mark := " "
		if best[r.Intensity] == r.Interval {
			mark = "*"
		}
		fmt.Fprintf(&b, "%13d%s %12.6f %12.6f %14.6f %9.3f×\n",
			r.Interval, mark, r.CkOverhead, r.Rework, r.Completion, r.InflationX)
	}
	return b.String()
}

// RecoveryCSV writes the sweep in the repo's sweep CSV conventions:
// lower_snake headers, seconds at %.9g, ratios at %.6g.
func RecoveryCSV(w io.Writer, rows []RecoveryRow) error {
	if _, err := fmt.Fprintln(w, "intensity,interval_tiles,faultfree_s,faulty_s,ck_overhead_s,expected_failures,rework_s,completion_s,inflation_x,young_opt_tiles"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%.6g,%d,%.9g,%.9g,%.9g,%.6g,%.9g,%.9g,%.6g,%.6g\n",
			r.Intensity, r.Interval, r.FaultFree, r.Faulty, r.CkOverhead,
			r.ExpFailures, r.Rework, r.Completion, r.InflationX, r.YoungOpt); err != nil {
			return err
		}
	}
	return nil
}
