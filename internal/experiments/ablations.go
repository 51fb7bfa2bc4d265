package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/space"
)

// CapabilityAblation measures how much of the overlapped schedule's win
// comes from each level of hardware support (Fig. 3a/b/c): no DMA (kernel
// copies on the CPU, only the wire overlaps), one DMA engine, full-duplex
// DMA. The blocking baseline is included for reference.
type CapabilityAblation struct {
	Grid    model.Grid3D
	V       int64
	Machine model.Machine
}

// CapabilityResult holds makespans per configuration.
type CapabilityResult struct {
	Blocking   float64
	NoDMA      float64
	DMA        float64
	FullDuplex float64
}

// points lays out the four configurations: overlapped without DMA and the
// blocking baseline, then overlapped with one DMA engine and full duplex.
func (a CapabilityAblation) points() []point {
	pts := pair(a.Grid, a.V, sim.CapNone, sim.GridOpts{})
	for _, cap := range []sim.Capability{sim.CapDMA, sim.CapFullDuplex} {
		pts = append(pts, point{a.Grid, a.V, sim.Overlapped, cap, sim.GridOpts{}})
	}
	return pts
}

// RunCtx executes the four configurations.
func (a CapabilityAblation) RunCtx(ctx context.Context) (CapabilityResult, error) {
	res, err := evalGrid(ctx, nil, "capability ablation", a.Machine, a.points())
	if err != nil {
		return CapabilityResult{}, err
	}
	return CapabilityResult{
		NoDMA:      res[0].Makespan,
		Blocking:   res[1].Makespan,
		DMA:        res[2].Makespan,
		FullDuplex: res[3].Makespan,
	}, nil
}

// FormatCapability renders the ablation.
func FormatCapability(a CapabilityAblation, r CapabilityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overlap-capability ablation: %dx%dx%d, V=%d\n", a.Grid.I, a.Grid.J, a.Grid.K, a.V)
	rows := []struct {
		name string
		t    float64
	}{
		{"blocking (baseline)", r.Blocking},
		{"overlapped, no DMA", r.NoDMA},
		{"overlapped, one DMA engine", r.DMA},
		{"overlapped, full-duplex DMA", r.FullDuplex},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-28s %10.6f s  (%.0f%% of blocking)\n",
			row.name, row.t, 100*row.t/r.Blocking)
	}
	return b.String()
}

// MappingAblation compares the paper's largest-dimension processor mapping
// against mapping along each other dimension of the tiled space, for a 3-D
// stencil problem (core-planned, unit tile deps). With tile sides held
// fixed, the largest-dimension mapping minimizes the schedule length P (the
// UET-UCT optimality result) and uses the fewest processors — alternative
// mappings can only approach its makespan by spending many times more
// hardware.
type MappingAblation struct {
	SpaceSizes []int64
	TileSides  ilmath.Vec
	Machine    model.Machine
}

// MappingResult is one mapping choice's outcome.
type MappingResult struct {
	MapDim     int
	P          int64 // overlapped schedule length
	Procs      int64
	Overlap    float64 // simulated overlapped makespan
	NonOverlap float64 // simulated blocking makespan
}

// RunCtx evaluates every mapping dimension. Its points are core.Plans, not
// grids, so each is simulated by Plan.SimulateOne on the evalAll pool:
// points 2d and 2d+1 are plan d's blocking and overlapped schedules.
func (a MappingAblation) RunCtx(ctx context.Context) ([]MappingResult, error) {
	sp, err := space.Rect(a.SpaceSizes...)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(sp, deps.Unit(len(a.SpaceSizes)))
	if err != nil {
		return nil, err
	}
	plans := make([]*core.Plan, sp.Dim())
	out := make([]MappingResult, sp.Dim())
	for d := range plans {
		dim := d
		plan, err := p.Plan(a.Machine, core.PlanOptions{TileSides: a.TileSides.Clone(), MapDim: &dim})
		if err != nil {
			return nil, err
		}
		pred, err := plan.Predict()
		if err != nil {
			return nil, err
		}
		plans[d] = plan
		out[d] = MappingResult{MapDim: d, P: pred.POverlap, Procs: plan.Mapping.NumProcs()}
	}
	res, err := evalAll(ctx, 2*len(plans), func(_ context.Context, i int) (sim.Result, error) {
		if i%2 == 0 {
			return plans[i/2].SimulateOne(sim.Blocking, sim.CapNone, false)
		}
		return plans[i/2].SimulateOne(sim.Overlapped, sim.CapDMA, false)
	})
	if err != nil {
		return nil, err
	}
	for d := range out {
		out[d].NonOverlap, out[d].Overlap = res[2*d].Makespan, res[2*d+1].Makespan
	}
	return out, nil
}

// FormatMapping renders the ablation, marking the largest-dimension choice.
func FormatMapping(a MappingAblation, rows []MappingResult) string {
	sp, _ := space.Rect(a.SpaceSizes...)
	largest := sp.LargestDim()
	var b strings.Builder
	fmt.Fprintf(&b, "Mapping-dimension ablation: space %v, tiles %v\n", a.SpaceSizes, a.TileSides)
	for _, r := range rows {
		mark := " "
		if r.MapDim == largest {
			mark = "*" // the paper's (UET-UCT optimal) choice
		}
		fmt.Fprintf(&b, " %smap dim %d: P=%4d procs=%4d overlap=%10.6fs blocking=%10.6fs\n",
			mark, r.MapDim, r.P, r.Procs, r.Overlap, r.NonOverlap)
	}
	return b.String()
}

// NetworkAblation compares the switched interconnect against a shared-bus
// medium (hub-era Ethernet): bus contention serializes every wire transfer
// in the cluster, eroding the overlapping schedule's advantage as processor
// count and traffic grow.
type NetworkAblation struct {
	Grid    model.Grid3D
	V       int64
	Machine model.Machine
}

// NetworkResult holds makespans per (schedule, network) cell.
type NetworkResult struct {
	BlockingSwitched  float64
	OverlapSwitched   float64
	BlockingSharedBus float64
	OverlapSharedBus  float64
}

// points lays out the four cells: an (overlapped, blocking) pair on the
// switched network, then one on the shared bus.
func (a NetworkAblation) points() []point {
	return append(pair(a.Grid, a.V, sim.CapDMA, sim.GridOpts{Net: sim.Switched}),
		pair(a.Grid, a.V, sim.CapDMA, sim.GridOpts{Net: sim.SharedBus})...)
}

// RunCtx executes the four cells.
func (a NetworkAblation) RunCtx(ctx context.Context) (NetworkResult, error) {
	res, err := evalGrid(ctx, nil, "network ablation", a.Machine, a.points())
	if err != nil {
		return NetworkResult{}, err
	}
	return NetworkResult{
		OverlapSwitched:   res[0].Makespan,
		BlockingSwitched:  res[1].Makespan,
		OverlapSharedBus:  res[2].Makespan,
		BlockingSharedBus: res[3].Makespan,
	}, nil
}

// FormatNetwork renders the ablation.
func FormatNetwork(a NetworkAblation, r NetworkResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interconnect ablation: %dx%dx%d, V=%d\n", a.Grid.I, a.Grid.J, a.Grid.K, a.V)
	fmt.Fprintf(&b, "  %-12s %14s %14s %12s\n", "network", "blocking", "overlapped", "improvement")
	fmt.Fprintf(&b, "  %-12s %13.6fs %13.6fs %11.1f%%\n", "switched",
		r.BlockingSwitched, r.OverlapSwitched, 100*(1-r.OverlapSwitched/r.BlockingSwitched))
	fmt.Fprintf(&b, "  %-12s %13.6fs %13.6fs %11.1f%%\n", "shared-bus",
		r.BlockingSharedBus, r.OverlapSharedBus, 100*(1-r.OverlapSharedBus/r.BlockingSharedBus))
	return b.String()
}

// StragglerAblation measures each schedule's sensitivity to one slow node:
// the pipelined overlap schedule routes every wavefront through every
// processor column, so a single straggler throttles the whole cluster in
// both schedules — but the blocking schedule, already paying serial
// communication, hides a mild straggler better.
type StragglerAblation struct {
	Grid      model.Grid3D
	V         int64
	Machine   model.Machine
	Straggler int64     // rank of the slow node
	Slowdowns []float64 // speed factors to test, e.g. 1.0, 0.75, 0.5
}

// StragglerRow is one slowdown level's outcome.
type StragglerRow struct {
	Speed            float64
	Blocking         float64
	Overlap          float64
	BlockingSlowdown float64 // vs the homogeneous makespan
	OverlapSlowdown  float64
}

// RunCtx executes the ablation. A per-rank NodeSpeed is a function, not a
// grid option the cache can key on, so its points are sim.Configs simulated
// by sim.Simulate on the evalAll pool: an (overlapped, blocking) pair at
// full speed, then one per slowdown.
func (a StragglerAblation) RunCtx(ctx context.Context) ([]StragglerRow, error) {
	if ranks := a.Grid.PI * a.Grid.PJ; a.Straggler < 0 || a.Straggler >= ranks {
		return nil, fmt.Errorf("experiments: straggler rank %d outside the %dx%d processor grid", a.Straggler, a.Grid.PI, a.Grid.PJ)
	}
	var cfgs []sim.Config
	for _, speed := range append([]float64{1}, a.Slowdowns...) {
		for _, p := range pair(a.Grid, a.V, sim.CapDMA, sim.GridOpts{}) {
			cfg, err := sim.GridConfig(p.g, p.v, a.Machine, p.mode, p.cap)
			if err != nil {
				return nil, err
			}
			if speed != 1 {
				cfg.NodeSpeed = func(rank int64) float64 {
					if rank == a.Straggler {
						return speed
					}
					return 1
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := evalAll(ctx, len(cfgs), func(_ context.Context, i int) (sim.Result, error) {
		return sim.Simulate(cfgs[i])
	})
	if err != nil {
		return nil, err
	}
	baseOv, baseBl := res[0].Makespan, res[1].Makespan
	rows := make([]StragglerRow, len(a.Slowdowns))
	for i, speed := range a.Slowdowns {
		ov, bl := res[2+2*i].Makespan, res[3+2*i].Makespan
		rows[i] = StragglerRow{
			Speed:            speed,
			Blocking:         bl,
			Overlap:          ov,
			BlockingSlowdown: bl / baseBl,
			OverlapSlowdown:  ov / baseOv,
		}
	}
	return rows, nil
}

// FormatStraggler renders the ablation.
func FormatStraggler(a StragglerAblation, rows []StragglerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Straggler ablation: %dx%dx%d, V=%d, slow node = rank %d\n",
		a.Grid.I, a.Grid.J, a.Grid.K, a.V, a.Straggler)
	fmt.Fprintf(&b, "  %8s %12s %12s %10s %10s\n", "speed", "blocking", "overlapped", "bl slow", "ov slow")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8.2f %11.6fs %11.6fs %9.2fx %9.2fx\n",
			r.Speed, r.Blocking, r.Overlap, r.BlockingSlowdown, r.OverlapSlowdown)
	}
	return b.String()
}
