package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ScaleSweep is the rank-scaling experiment: the paper's 16-node comparison
// of the overlapped and blocking schedules, repeated while the simulated
// cluster grows to thousands of ranks behind a hierarchical interconnect
// (DESIGN.md §12). Scaling is weak — the per-rank tile footprint stays
// fixed while the processor grid grows — so a flat non-blocking machine
// would keep the makespan constant and every change in the curve is the
// topology's doing (uplink hops, contention at the oversubscribed tiers).
type ScaleSweep struct {
	ID     string
	Title  string
	Points []ScalePoint
	// TileI/TileJ are the per-rank tile footprint in the i and j
	// dimensions: point {PI, PJ} simulates a TileI·PI × TileJ·PJ × K
	// space on a PI×PJ processor grid (K from GridAt).
	TileI, TileJ int64
	V            int64
	Machine      model.Machine
	Cap          sim.Capability
	// Interconnect is the switch hierarchy every point is simulated under.
	// The fabric sizes itself to each point's rank count, so one spec
	// serves the whole sweep.
	Interconnect topo.Spec
	// Cache optionally memoizes points across runs (see Sweep.Cache).
	Cache *sim.Cache
}

// ScalePoint is one processor-grid size of the sweep (PI·PJ ranks).
type ScalePoint struct {
	PI, PJ int64
}

// Ranks returns the point's world size.
func (p ScalePoint) Ranks() int64 { return p.PI * p.PJ }

// ScaleRow is one completed point: both schedules' makespans plus the
// overlap and link accounting of the overlapped run.
type ScaleRow struct {
	Ranks       int64
	Grid        model.Grid3D
	OverlapSim  float64
	BlockingSim float64
	// Mean CPU utilization per schedule.
	OverlapCPUUtil  float64
	BlockingCPUUtil float64
	// OverlapEff is the overlapped schedule's overlap efficiency
	// (hidden-comm / total-comm, see obs.Report).
	OverlapEff float64
	// LinkBusy and LinkQueueWait sum the fabric-link busy and queue-wait
	// time over every hierarchy level of the overlapped run — the direct
	// measure of uplink contention at scale.
	LinkBusy      float64
	LinkQueueWait float64
}

// ImprovementPct is the overlapped schedule's gain over blocking at this
// scale, in percent.
func (r ScaleRow) ImprovementPct() float64 {
	if r.BlockingSim == 0 {
		return 0
	}
	return 100 * (1 - r.OverlapSim/r.BlockingSim)
}

// DefaultScaleSweep is the configuration EXPERIMENTS.md's scaling table is
// generated from: 1024, 4096 and 10000 ranks on a two-tier fat tree (25
// nodes per edge switch, 20 edge switches per aggregation switch, 4×/8×
// uplink bandwidth, 2 µs per hop, 2-way ECMP), weak-scaled from the paper's
// calibrated Pentium cluster with a 4×4 per-rank tile at V=64 and a k
// extent of 2·(PI+PJ) tile heights per point.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		ID:     "scale",
		Title:  "Weak scaling on a two-tier fat tree (4x4 tile per rank, V=64, K=2(PI+PJ)V)",
		Points: []ScalePoint{{32, 32}, {64, 64}, {100, 100}},
		TileI:  4, TileJ: 4,
		V:            64,
		Machine:      model.PentiumCluster(),
		Cap:          sim.CapDMA,
		Interconnect: topo.FatTree(25, 20, 4, 8, 2e-6, 2),
	}
}

// GridAt expands one point into its weak-scaled iteration space, of depth
// K = 2·(PI+PJ)·V. The wavefront takes PI+PJ−2 tile times to fill the
// processor grid, so scaling the depth with the grid keeps every point in
// the steady-state regime the paper's comparison is about (a fixed shallow
// K at 10000 ranks would measure pipeline fill, where neither schedule
// overlaps anything).
func (s ScaleSweep) GridAt(p ScalePoint) model.Grid3D {
	return model.Grid3D{
		I: s.TileI * p.PI, J: s.TileJ * p.PJ, K: 2 * (p.PI + p.PJ) * s.V,
		PI: p.PI, PJ: p.PJ,
	}
}

// points lays out the sweep: an (overlapped, blocking) pair per processor
// grid, each under the sweep's interconnect with the metrics pass on.
func (s ScaleSweep) points() []point {
	o := sim.GridOpts{Interconnect: s.Interconnect, Metrics: true}
	pts := make([]point, 0, 2*len(s.Points))
	for _, p := range s.Points {
		pts = append(pts, pair(s.GridAt(p), s.V, s.Cap, o)...)
	}
	return pts
}

// RunCtx evaluates every point under both schedules through evalGrid; rows
// come back in point order regardless of worker scheduling (cancellation
// semantics as in Sweep.RunCtx).
func (s ScaleSweep) RunCtx(ctx context.Context) ([]ScaleRow, error) {
	res, err := evalGrid(ctx, s.Cache, s.ID, s.Machine, s.points())
	if err != nil {
		return nil, err
	}
	return s.rows(res), nil
}

// rows assembles one ScaleRow per point from results laid out by points.
func (s ScaleSweep) rows(res []sim.Result) []ScaleRow {
	rows := make([]ScaleRow, len(s.Points))
	for i, p := range s.Points {
		ov, bl := res[2*i], res[2*i+1]
		r := ScaleRow{
			Ranks:           p.Ranks(),
			Grid:            s.GridAt(p),
			OverlapSim:      ov.Makespan,
			BlockingSim:     bl.Makespan,
			OverlapCPUUtil:  ov.CPUUtilization,
			BlockingCPUUtil: bl.CPUUtilization,
		}
		if ov.Obs != nil {
			r.OverlapEff = ov.Obs.OverlapEfficiency
			for _, ll := range ov.Obs.LinkLevels {
				r.LinkBusy += ll.Busy
				r.LinkQueueWait += ll.QueueWait
			}
		}
		rows[i] = r
	}
	return rows
}

// FormatScale renders the sweep as an aligned text table.
func FormatScale(s ScaleSweep, rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, interconnect %v)\n", s.Title, s.ID, s.Interconnect)
	fmt.Fprintf(&b, "%7s %16s %14s %14s %8s %7s %8s %12s %12s\n",
		"ranks", "space", "overlap(sim)", "blocking(sim)", "improve", "ovCPU%", "ovEff%", "link-busy-s", "link-wait-s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %16s %14.6f %14.6f %7.1f%% %6.0f%% %7.1f%% %12.4f %12.4f\n",
			r.Ranks, fmt.Sprintf("%dx%dx%d", r.Grid.I, r.Grid.J, r.Grid.K),
			r.OverlapSim, r.BlockingSim, r.ImprovementPct(),
			100*r.OverlapCPUUtil, 100*r.OverlapEff, r.LinkBusy, r.LinkQueueWait)
	}
	return b.String()
}

// ScaleCSV writes the rows as comma-separated values with a header.
func ScaleCSV(w io.Writer, rows []ScaleRow) error {
	if _, err := fmt.Fprintln(w, "ranks,i,j,k,overlap_sim_s,blocking_sim_s,improvement_pct,overlap_cpu_util,overlap_eff,link_busy_s,link_queue_wait_s"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.9g,%.9g,%.6g,%.6g,%.6g,%.9g,%.9g\n",
			r.Ranks, r.Grid.I, r.Grid.J, r.Grid.K, r.OverlapSim, r.BlockingSim,
			r.ImprovementPct(), r.OverlapCPUUtil, r.OverlapEff, r.LinkBusy, r.LinkQueueWait); err != nil {
			return err
		}
	}
	return nil
}

// CheckScale evaluates the sweep's qualitative claim: the overlapped
// schedule keeps a positive edge over blocking at every rank count.
func CheckScale(rows []ScaleRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("scale: no rows")
	}
	for _, r := range rows {
		if r.OverlapSim >= r.BlockingSim {
			return fmt.Errorf("scale: overlap lost its edge at %d ranks (%.6fs vs %.6fs)",
				r.Ranks, r.OverlapSim, r.BlockingSim)
		}
	}
	return nil
}
