package sim

import (
	"fmt"

	"repro/internal/deps"
	"repro/internal/fault"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/topo"
)

// GridConfig assembles a full simulation Config for a Grid3D experiment:
// tiles (I/PI)×(J/PJ)×v under deps.Stencil3D, mapped along the k axis (the
// largest dimension), the last k tile partial when v does not divide K.
func GridConfig(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability) (Config, error) {
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	if v <= 0 || v > c.K {
		return Config{}, fmt.Errorf("sim: tile height %d out of range (0, %d]", v, c.K)
	}
	topo, err := BoxTopology(ilmath.V(c.I, c.J, c.K), ilmath.V(c.TileI(), c.TileJ(), v), 2, deps.Stencil3D(), m.BytesPerElem)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Topo:    topo,
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
//   - The busiest CPU's total work: its compute K·TileI·TileJ·t_c plus the
//     CPU-resident cost of every message end it handles — min(PI−1, 2)
//     i-faces and min(PJ−1, 2) j-faces per k tile, the partial last tile
//     priced exactly. An end costs FillMPI+FillKernel in blocking mode or
//     under CapNone (the blocking send and receive and the CapNone kernel
//     copies run on the CPU) and FillMPI otherwise (the kernel copies ride
//     the comm channel).
//   - The fill–program–drain path, the paper's pipeline shape (eq. 3–5):
//     the longest, over processors (i, j), of one explicit path in the DES
//     graph. The first tile's wavefront reaches (i, j) in i+j fill hops,
//     (i, j) runs its program-order CPU chain from its first compute to its
//     last, and the last tile's wavefront leaves it for the corner in
//     (PI−1−i)+(PJ−1−j) drain hops. A hop is one tile's compute (c₀, the
//     first tile's, on the fill; c_L, the last tile's, on the drain) plus
//     the message's stages between the sending and the receiving compute:
//     in blocking mode send, two wire stages and receive, the send and the
//     receive each an end FillMPI+FillKernel; overlapped A1, B3, B4, B1,
//     B2. The program is K·TileI·TileJ·t_c plus the message ends (i, j)
//     chains between its first and its last compute: the sends of steps
//     0..kt−2 and receives of steps 1..kt−1 in blocking mode (an end
//     each), the A1s of steps 0..kt−2 and A3 posts of steps 1..kt−1
//     overlapped (FillMPI each). At the last processor, with the message
//     costs dropped, the path is the compute-only dependence chain
//     ((PI−1)+(PJ−1))·V·TileI·TileJ·t_c + K·TileI·TileJ·t_c, so the term
//     is never below it.
//
// The network, the interconnect and the wire only add constraints: more
// stages on a message's way (a shared bus, a switch hierarchy) and resource
// waits, which the path skips and the busy CPU does not count. So the
// bound holds for every fault-free GridOpts and every capability. Under an
// active fault plan (stragglers, pauses) and for a point SimulateGrid would
// reject, it returns 0: no bound. It allocates nothing.
func GridLowerBound(c model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) float64 {
	if o.Fault.Active() || c.Validate() != nil || m.Validate() != nil || v <= 0 || v > c.K {
		return 0
	}
	face := float64(c.TileI()*c.TileJ()) * m.Tc
	end := m.FillMPI
	if mode == Blocking || cap == CapNone {
		end = func(bytes int64) float64 { return m.FillMPI(bytes) + m.FillKernel(bytes) }
	}
	nI, nJ := float64(min(c.PI-1, 2)), float64(min(c.PJ-1, 2))
	ends := func(h int64) float64 {
		return nI*end(c.FaceBytesI(h, m.BytesPerElem)) + nJ*end(c.FaceBytesJ(h, m.BytesPerElem))
	}
	kt := c.KTiles(v)
	hL := c.K - v*(kt-1) // the last k tile's height
	busy := float64(c.K)*face + float64(kt-1)*ends(v) + ends(hL)

	bpe, c0, cL := m.BytesPerElem, float64(v)*face, float64(hL)*face
	pathI := axisPath(c.PI, kt, c0, cL, pathMsg(m, mode, c.FaceBytesI(v, bpe)), pathMsg(m, mode, c.FaceBytesI(hL, bpe)))
	pathJ := axisPath(c.PJ, kt, c0, cL, pathMsg(m, mode, c.FaceBytesJ(v, bpe)), pathMsg(m, mode, c.FaceBytesJ(hL, bpe)))
	path := float64(c.K)*face + pathI + pathJ
	return max(busy, path) * (1 - boundSlack)
}

// msgPath prices one message on GridLowerBound's path: cpu is what one end
// adds to a processor's program-order chain, hop what the message adds
// between the sending tile's compute and the receiving tile's.
type msgPath struct{ cpu, hop float64 }

// pathMsg prices a message of the given size under mode. Blocking: the
// send and the receive each run FillMPI+FillKernel on the CPU, with the two
// wire stages between them. Overlapped: A1 (FillMPI) is the sender's
// program-order end and A3 (FillMPI) the receiver's; a hop is A1, B3, B4,
// B1, B2. The kernel copies are on the hop under every capability, on the
// CPU or the comm channel alike.
func pathMsg(m model.Machine, mode Mode, bytes int64) msgPath {
	mpi, kern, wire := m.FillMPI(bytes), m.FillKernel(bytes), m.Wire(bytes)
	if mode == Blocking {
		return msgPath{cpu: mpi + kern, hop: 2*(mpi+kern) + 2*wire}
	}
	return msgPath{cpu: mpi, hop: mpi + 2*kern + 2*wire}
}

// axisPath returns the largest share of GridLowerBound's path term that one
// processor axis of extent n contributes, over the processor's index i on
// it: i fill hops of the first tile (c0 plus first.hop each), n−1−i drain
// hops of the last (cL plus last.hop), the program-order sends of steps
// 0..kt−2 when the processor has a successor on the axis and the receives
// of steps 1..kt−1 when it has a predecessor. The path's other axis adds
// independently, so the two maxima add. Between the two ends of the axis
// the share is linear in i, so i = 1 or i = n−2 is the interior's best.
func axisPath(n, kt int64, c0, cL float64, first, last msgPath) float64 {
	if n == 1 {
		return 0
	}
	fill, drain := c0+first.hop, cL+last.hop
	sends := float64(kt-1) * first.cpu
	recvs := 0.0
	if kt > 1 {
		recvs = float64(kt-2)*first.cpu + last.cpu
	}
	best := float64(n-1)*drain + sends // i = 0
	if s := float64(n-1)*fill + recvs; s > best {
		best = s // i = n−1
	}
	if n > 2 {
		i := int64(1)
		if fill > drain {
			i = n - 2
		}
		if s := float64(i)*fill + float64(n-1-i)*drain + sends + recvs; s > best {
			best = s
		}
	}
	return best
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
	cfg.Fault = o.Fault
	cfg.Metrics = o.Metrics
	cfg.Trace = o.Trace
	return cfg, nil
}
