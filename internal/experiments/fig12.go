package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/space"
)

// Fig12Row reproduces one column of the paper's Fig. 12 summary table.
type Fig12Row struct {
	Space          string
	VOpt           int64   // simulated-optimal tile height (paper: V_optimal)
	GOpt           int64   // tile volume at the optimum (paper: g_optimal)
	TOptOverlap    float64 // simulated optimal overlapped time (paper: experimental)
	TFillMPIBuf    float64 // per-message MPI buffer fill at the optimum's packet size
	P              int64   // exact overlapped schedule length at the optimum
	TOverlapTheory float64 // eq. 4/5 prediction at the optimum
	DiffPct        float64 // |theory − sim| / sim
	TOptBlocking   float64 // simulated optimal blocking time
	VOptBlocking   int64
	ImprovementPct float64 // 1 − overlap/blocking at the respective optima
}

// PaperFig12 returns the values printed in the paper's Fig. 12, for
// side-by-side comparison in EXPERIMENTS.md and the CLI.
func PaperFig12() []Fig12Row {
	return []Fig12Row{
		{Space: "16x16x16384", VOpt: 444, GOpt: 7104, TOptOverlap: 0.233923,
			TFillMPIBuf: 0.627e-3, P: 53, TOverlapTheory: 0.24, DiffPct: 2.5,
			TOptBlocking: 0.376637, ImprovementPct: 38},
		{Space: "16x16x32768", VOpt: 538, GOpt: 8608, TOptOverlap: 0.467929,
			TFillMPIBuf: 0.745e-3, P: 76, TOverlapTheory: 0.507, DiffPct: 7,
			TOptBlocking: 0.694516, ImprovementPct: 33},
		{Space: "32x32x4096", VOpt: 164, GOpt: 10496, TOptOverlap: 0.219059,
			TFillMPIBuf: 0.37e-3, P: 41, TOverlapTheory: 0.25, DiffPct: 12,
			TOptBlocking: 0.324069, ImprovementPct: 32},
	}
}

// Fig12For regenerates the summary table on the simulated cluster: for each
// sweep (the paper's three spaces, or scaled-down variants in tests) it
// finds the simulated optima of both schedules, then evaluates the analytic
// model at the overlapped optimum (the paper's theoretical column). A
// cancelled ctx stops it between DES evaluations with ctx.Err().
func Fig12For(ctx context.Context, sweeps []Sweep) ([]Fig12Row, error) {
	rows := make([]Fig12Row, 0, len(sweeps))
	for _, s := range sweeps {
		vOv, tOv, err := s.OptimumRefinedCtx(ctx, sim.Overlapped)
		if err != nil {
			return nil, err
		}
		vBl, tBl, err := s.OptimumRefinedCtx(ctx, sim.Blocking)
		if err != nil {
			return nil, err
		}
		theory := s.Grid.PredictOverlap(vOv, s.Machine)
		faceBytes := s.Grid.FaceBytesI(vOv, s.Machine.BytesPerElem)
		rows = append(rows, Fig12Row{
			Space:          fmt.Sprintf("%dx%dx%d", s.Grid.I, s.Grid.J, s.Grid.K),
			VOpt:           vOv,
			GOpt:           s.Grid.TileVolume(vOv),
			TOptOverlap:    tOv,
			TFillMPIBuf:    s.Machine.FillMPI(faceBytes),
			P:              s.Grid.POverlap(vOv),
			TOverlapTheory: theory,
			DiffPct:        100 * math.Abs(theory-tOv) / tOv,
			TOptBlocking:   tBl,
			VOptBlocking:   vBl,
			ImprovementPct: 100 * (1 - tOv/tBl),
		})
	}
	return rows, nil
}

// FormatFig12 renders rows side by side with the paper's values.
func FormatFig12(rows []Fig12Row) string {
	paper := PaperFig12()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %18s %18s %18s\n", "", "i", "ii", "iii")
	line := func(label string, f func(r Fig12Row) string) {
		fmt.Fprintf(&b, "%-14s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, " %18s", f(r))
		}
		b.WriteByte('\n')
	}
	idx := func(r Fig12Row) int {
		for i, p := range paper {
			if p.Space == r.Space {
				return i
			}
		}
		return -1
	}
	line("space", func(r Fig12Row) string { return r.Space })
	line("V_opt", func(r Fig12Row) string {
		return fmt.Sprintf("%d (paper %d)", r.VOpt, paper[idx(r)].VOpt)
	})
	line("g_opt", func(r Fig12Row) string { return fmt.Sprintf("%d", r.GOpt) })
	line("t_opt overlap", func(r Fig12Row) string {
		return fmt.Sprintf("%.4fs (p %.3f)", r.TOptOverlap, paper[idx(r)].TOptOverlap)
	})
	line("T_fill_MPI", func(r Fig12Row) string { return fmt.Sprintf("%.3fms", r.TFillMPIBuf*1e3) })
	line("P(g)", func(r Fig12Row) string { return fmt.Sprintf("%d (paper %d)", r.P, paper[idx(r)].P) })
	line("t_opt theory", func(r Fig12Row) string {
		return fmt.Sprintf("%.4fs (p %.3f)", r.TOverlapTheory, paper[idx(r)].TOverlapTheory)
	})
	line("diff th/exp", func(r Fig12Row) string {
		return fmt.Sprintf("%.1f%% (p %.1f%%)", r.DiffPct, paper[idx(r)].DiffPct)
	})
	line("t_opt blocking", func(r Fig12Row) string {
		return fmt.Sprintf("%.4fs (p %.3f)", r.TOptBlocking, paper[idx(r)].TOptBlocking)
	})
	line("improvement", func(r Fig12Row) string {
		return fmt.Sprintf("%.0f%% (paper %.0f%%)", r.ImprovementPct, paper[idx(r)].ImprovementPct)
	})
	return b.String()
}

// Examples renders the paper's worked Examples 1 and 3 with its reference
// values. They are one problem under two schedules, so both come from the
// Example 1 core.Plan (default options: the Hodzic–Shang g = 100, square
// 10×10 tiles mapped along i₁): g, formula (2)'s V_comm, the schedule
// lengths and eq. 3 (Example 1) and eq. 4 (Example 3) from Plan.Predict.
// The plan then runs both schedules on the simulator under ctx.
func Examples(ctx context.Context) (string, error) {
	prob, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		return "", err
	}
	plan, err := prob.Plan(model.Example1Machine(), core.PlanOptions{})
	if err != nil {
		return "", err
	}
	pred, err := plan.Predict()
	if err != nil {
		return "", err
	}
	vcomm, err := plan.Tiling.CommVolumeMapped(prob.Deps, plan.Mapping.MapDim)
	if err != nil {
		return "", err
	}
	g, tc := plan.Tiling.VolumeInt(), plan.Machine.Tc
	var b strings.Builder
	fmt.Fprintf(&b, "Example 1 (non-overlapping, Section 3)\n")
	fmt.Fprintf(&b, "  g = %d, V_comm = %d, P = %d, Π = %v\n", g, vcomm, pred.PNonOverlap, []int64(plan.NonOverlap.Pi))
	fmt.Fprintf(&b, "  T = %.0f·t_c = %.6f s   (paper: 400036·t_c = 0.4 s)\n", pred.NonOverlap/tc, pred.NonOverlap)
	fmt.Fprintf(&b, "Example 3 (overlapping, Section 4)\n")
	fmt.Fprintf(&b, "  g = %d, V_comm = %d, P = %d, Π = %v\n", g, vcomm, pred.POverlap, []int64(plan.Overlap.Pi))
	fmt.Fprintf(&b, "  T = %.0f·t_c = %.6f s   (paper: ≈0.24 s)\n", pred.Overlap/tc, pred.Overlap)
	fmt.Fprintf(&b, "Improvement: %.1f%%\n", 100*pred.Improvement)

	// Cross-check on the simulated 100-strip cluster deployment: each strip
	// of tiles a processor, shipping what the real 2-D executor ships (s1+1
	// values per tile).
	res, err := evalAll(ctx, 2, func(_ context.Context, i int) (sim.Result, error) {
		if i == 1 {
			return plan.SimulateOne(sim.Overlapped, sim.CapDMA, false)
		}
		return plan.SimulateOne(sim.Blocking, sim.CapNone, false)
	})
	if err != nil {
		return "", err
	}
	bl, ov := res[0], res[1]
	fmt.Fprintf(&b, "Simulated on the 100-strip cluster deployment:\n")
	fmt.Fprintf(&b, "  blocking %.6f s, overlapped %.6f s, improvement %.1f%%\n",
		bl.Makespan, ov.Makespan, 100*(1-ov.Makespan/bl.Makespan))
	return b.String(), nil
}
