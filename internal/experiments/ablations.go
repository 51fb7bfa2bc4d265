package experiments

import (
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

// Run executes the four configurations.
func (a CapabilityAblation) Run() (CapabilityResult, error) {
	var res CapabilityResult
	bl, err := sim.SimulateGrid(a.Grid, a.V, a.Machine, sim.Blocking, sim.CapNone, sim.GridOpts{})
	if err != nil {
		return res, err
	}
	res.Blocking = bl.Makespan
	for _, c := range []struct {
		cap sim.Capability
		dst *float64
	}{
		{sim.CapNone, &res.NoDMA},
		{sim.CapDMA, &res.DMA},
		{sim.CapFullDuplex, &res.FullDuplex},
	} {
		r, err := sim.SimulateGrid(a.Grid, a.V, a.Machine, sim.Overlapped, c.cap, sim.GridOpts{})
		if err != nil {
			return res, err
		}
		*c.dst = r.Makespan
	}
	return res, nil
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

// Run evaluates every mapping dimension.
func (a MappingAblation) Run() ([]MappingResult, error) {
	sp, err := space.Rect(a.SpaceSizes...)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(sp, deps.Unit(len(a.SpaceSizes)))
	if err != nil {
		return nil, err
	}
	out := make([]MappingResult, 0, sp.Dim())
	for d := 0; d < sp.Dim(); d++ {
		dim := d
		plan, err := p.Plan(a.Machine, core.PlanOptions{TileSides: a.TileSides.Clone(), MapDim: &dim})
		if err != nil {
			return nil, err
		}
		pred, err := plan.Predict()
		if err != nil {
			return nil, err
		}
		simr, err := plan.Simulate(sim.CapDMA)
		if err != nil {
			return nil, err
		}
		out = append(out, MappingResult{
			MapDim:     d,
			P:          pred.POverlap,
			Procs:      plan.Mapping.NumProcs(),
			Overlap:    simr.Overlap.Makespan,
			NonOverlap: simr.NonOverlap.Makespan,
		})
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

// Run executes the four cells.
func (a NetworkAblation) Run() (NetworkResult, error) {
	var res NetworkResult
	cells := []struct {
		mode sim.Mode
		cap  sim.Capability
		net  sim.Network
		dst  *float64
	}{
		{sim.Blocking, sim.CapNone, sim.Switched, &res.BlockingSwitched},
		{sim.Overlapped, sim.CapDMA, sim.Switched, &res.OverlapSwitched},
		{sim.Blocking, sim.CapNone, sim.SharedBus, &res.BlockingSharedBus},
		{sim.Overlapped, sim.CapDMA, sim.SharedBus, &res.OverlapSharedBus},
	}
	for _, c := range cells {
		r, err := sim.SimulateGrid(a.Grid, a.V, a.Machine, c.mode, c.cap, sim.GridOpts{Net: c.net})
		if err != nil {
			return res, err
		}
		*c.dst = r.Makespan
	}
	return res, nil
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

// Run executes the ablation.
func (a StragglerAblation) Run() ([]StragglerRow, error) {
	run := func(mode sim.Mode, cap sim.Capability, speed float64) (float64, error) {
		cfg, err := sim.GridConfig(a.Grid, a.V, a.Machine, mode, cap)
		if err != nil {
			return 0, err
		}
		if speed != 1 {
			cfg.NodeSpeed = func(rank int64) float64 {
				if rank == a.Straggler {
					return speed
				}
				return 1
			}
		}
		r, err := sim.Simulate(cfg)
		if err != nil {
			return 0, err
		}
		return r.Makespan, nil
	}
	baseBl, err := run(sim.Blocking, sim.CapNone, 1)
	if err != nil {
		return nil, err
	}
	baseOv, err := run(sim.Overlapped, sim.CapDMA, 1)
	if err != nil {
		return nil, err
	}
	rows := make([]StragglerRow, 0, len(a.Slowdowns))
	for _, s := range a.Slowdowns {
		bl, err := run(sim.Blocking, sim.CapNone, s)
		if err != nil {
			return nil, err
		}
		ov, err := run(sim.Overlapped, sim.CapDMA, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, StragglerRow{
			Speed:            s,
			Blocking:         bl,
			Overlap:          ov,
			BlockingSlowdown: bl / baseBl,
			OverlapSlowdown:  ov / baseOv,
		})
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
