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

// boundSlack is the relative slack GridLowerBound gives up so that it holds
// under floating-point summation: the closed form multiplies K·TileI·TileJ
// by t_c once, while the DES accumulates the same work tile by tile and
// message by message, and the two orders may round apart by a few ulps per
// term. 1e-9 covers over 10^6 terms and costs no pruning power.
const boundSlack = 1e-9

// GridLowerBound returns a closed-form lower bound on the makespan
// SimulateGrid returns for the same point, without simulating: the larger
// of two terms, each a quantity the DES cannot finish before.
//
//   - The compute-only dependence chain: the (PI−1)+(PJ−1) first-row tiles
//     of height V that feed the last processor, then its whole k column,
//     ((PI−1)+(PJ−1))·V·TileI·TileJ·t_c + K·TileI·TileJ·t_c.
//   - The busiest CPU's total work: its compute K·TileI·TileJ·t_c plus the
//     CPU-resident cost of every message end it handles — min(PI−1, 2)
//     i-faces and min(PJ−1, 2) j-faces per k tile, the partial last tile
//     priced exactly. An end costs FillMPI+FillKernel in blocking mode or
//     under CapNone (the blocking send and receive and the CapNone kernel
//     copies run on the CPU) and FillMPI otherwise (the kernel copies ride
//     the comm channel).
//
// The network, the interconnect and the wire only add constraints, so the
// bound holds for every fault-free GridOpts. Under an active fault plan
// (stragglers, pauses) and for a point SimulateGrid would reject, it
// returns 0: no bound.
func GridLowerBound(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) float64 {
	if o.Fault.Active() || c.Validate() != nil || m.Validate() != nil || v <= 0 || v > c.K {
		return 0
	}
	face := float64(c.TileI()*c.TileJ()) * m.Tc
	chain := float64((c.PI-1)+(c.PJ-1))*float64(v)*face + float64(c.K)*face

	end := m.FillMPI
	if mode == Blocking || cap == CapNone {
		end = func(bytes int64) float64 { return m.FillMPI(bytes) + m.FillKernel(bytes) }
	}
	nI, nJ := float64(min(c.PI-1, 2)), float64(min(c.PJ-1, 2))
	ends := func(h int64) float64 {
		return nI*end(c.FaceBytesI(h, m.BytesPerElem)) + nJ*end(c.FaceBytesJ(h, m.BytesPerElem))
	}
	kt := c.KTiles(v)
	busy := float64(c.K)*face + float64(kt-1)*ends(v) + ends(c.K-v*(kt-1))
	return max(chain, busy) * (1 - boundSlack)
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
