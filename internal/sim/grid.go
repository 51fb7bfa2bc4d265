package sim

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/fault"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/topo"
)

// GridTopology builds the Topology of the paper's Section 5 experiments: a
// model.Grid3D iteration space with tiles (I/PI)×(J/PJ)×v, mapped along the
// k axis (the largest dimension), with exact handling of the partial last
// tile when v does not divide K.
func GridTopology(c model.Grid3D, v int64, bytesPerElem int64) (Topology, error) {
	if err := c.Validate(); err != nil {
		return Topology{}, err
	}
	if v <= 0 || v > c.K {
		return Topology{}, fmt.Errorf("sim: tile height %d out of range (0, %d]", v, c.K)
	}
	if bytesPerElem <= 0 {
		return Topology{}, fmt.Errorf("sim: non-positive element size %d", bytesPerElem)
	}
	ti, tj := c.TileI(), c.TileJ()
	kt := c.KTiles(v)
	ts, err := space.Rect(c.PI, c.PJ, kt)
	if err != nil {
		return Topology{}, err
	}
	const mapDim = 2
	m, err := schedule.NewMapping(ts, mapDim)
	if err != nil {
		return Topology{}, err
	}
	// height of the k-extent of tile tc (the last k tile may be partial).
	height := func(tc ilmath.Vec) int64 {
		if tc[2] == kt-1 {
			return c.K - v*(kt-1)
		}
		return v
	}
	topo := Topology{
		TileSpace: ts,
		Map:       m,
		TileVolume: func(tc ilmath.Vec) int64 {
			return ti * tj * height(tc)
		},
		MsgBytes: func(from, to ilmath.Vec) int64 {
			// The message carries the tile face of the producing tile
			// perpendicular to the dependence direction.
			h := height(from)
			switch {
			case to[0] == from[0]+1: // i-direction: j×k face
				return tj * h * bytesPerElem
			case to[1] == from[1]+1: // j-direction: i×k face
				return ti * h * bytesPerElem
			default: // k-direction (intra-processor; not used as a message)
				return ti * tj * bytesPerElem
			}
		},
	}
	return topo, nil
}

// GridConfig assembles a full simulation Config for a Grid3D experiment.
func GridConfig(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) (Config, error) {
	topo, err := GridTopology(c, v, m.BytesPerElem)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Topo:    topo,
		Deps:    deps.Stencil3D(),
		Machine: m,
		Mode:    mode,
		Cap:     cap,
	}, nil
}

// GridOpts bundles the optional knobs of a grid simulation: the interconnect
// model (zero value: switched), the switch hierarchy (zero value: flat), a
// fault plan (zero value or zero intensity: fault-free, byte-identical to no
// plan), the phase-accounting metrics pass and the full labeled trace (both
// off by default). The zero value is the paper's plain switched cluster.
// Every field is part of a Cache key.
type GridOpts struct {
	Net          Network
	Interconnect topo.Spec
	Fault        fault.Plan
	Metrics      bool
	Trace        bool
}

// SimulateGrid simulates one (grid, tile height, schedule) point of the
// paper's Section 5 experiments under the options o, with a one-shot
// engine. It is the uncached reference: (*Cache).SimulateGridCtx returns
// bit-identical Results, and the sequential sweep references and the tests
// compare against this.
func SimulateGrid(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) (Result, error) {
	cfg, err := gridConfig(c, v, m, mode, cap, o)
	if err != nil {
		return Result{}, err
	}
	return Simulate(cfg)
}

// gridConfig is GridConfig with the options applied: the one place a
// GridOpts becomes a Config, for the cached and the uncached path alike.
func gridConfig(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) (Config, error) {
	cfg, err := GridConfig(c, v, m, mode, cap)
	if err != nil {
		return Config{}, err
	}
	cfg.Network = o.Net
	cfg.Interconnect = o.Interconnect
	if o.Fault.Active() {
		fp := o.Fault
		cfg.Fault = &fp
	}
	cfg.Metrics = o.Metrics
	cfg.Trace = o.Trace
	return cfg, nil
}
