package sim

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Mode selects which of the paper's two execution schemes to simulate.
type Mode int

const (
	// Blocking is the non-overlapping schedule of Section 3: each step is a
	// serial receive→compute→send triplet using blocking primitives; all
	// copies burn CPU.
	Blocking Mode = iota
	// Overlapped is the pipelined schedule of Section 4 using non-blocking
	// primitives: at step k the CPU computes tile k while the communication
	// hardware sends tile k−1's results and receives tile k+1's inputs.
	Overlapped
)

func (m Mode) String() string {
	switch m {
	case Blocking:
		return "blocking"
	case Overlapped:
		return "overlapped"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Capability describes how much communication the node hardware can run
// concurrently with the CPU (Fig. 3 of the paper).
type Capability int

const (
	// CapNone: no DMA support — kernel buffer copies execute on the CPU and
	// only the wire time itself is off-CPU (Fig. 3a with minimal overlap).
	CapNone Capability = iota
	// CapDMA: a single DMA/comm engine per node performs kernel copies and
	// shares one half-duplex channel for tx and rx (Fig. 3b).
	CapDMA
	// CapFullDuplex: independent rx and tx engines (multichannel DMA I/O,
	// Fig. 3c) — sends and receives themselves overlap.
	CapFullDuplex
)

func (c Capability) String() string {
	switch c {
	case CapNone:
		return "no-dma"
	case CapDMA:
		return "dma"
	case CapFullDuplex:
		return "full-duplex"
	default:
		return fmt.Sprintf("Capability(%d)", int(c))
	}
}

// Network selects the interconnect contention model.
type Network int

const (
	// Switched gives every node its own full-bandwidth port (a switched
	// FastEthernet, the default): wire transfers of different node pairs
	// proceed concurrently.
	Switched Network = iota
	// SharedBus serializes every wire transfer in the whole cluster on one
	// medium — a hub/coax Ethernet. The paper's Example 1 cites 10 Mbps
	// Ethernet; this mode shows how bus contention erodes (and with enough
	// processors erases) the overlapping schedule's advantage.
	SharedBus
)

func (n Network) String() string {
	switch n {
	case Switched:
		return "switched"
	case SharedBus:
		return "shared-bus"
	default:
		return fmt.Sprintf("Network(%d)", int(n))
	}
}

// Config is a full simulation request.
type Config struct {
	Topo    Topology
	Machine model.Machine
	Mode    Mode
	Cap     Capability
	Network Network
	// Interconnect describes the switch hierarchy between the nodes. The
	// zero value is the flat single-switch machine (every pair one
	// port-to-port transfer, the model all earlier experiments used). A
	// hierarchical spec routes each cross-switch message over per-level
	// uplink/downlink resources (simnet.Fabric), so uplink contention and
	// per-hop latency emerge from the discrete-event engine. Requires
	// Network == Switched: the SharedBus medium already is the degenerate
	// one-link topology.
	Interconnect topo.Spec
	Trace        bool
	// NodeSpeed optionally scales per-node CPU performance: rank r's
	// CPU-resident work takes duration/NodeSpeed(r), a fault pause
	// included. nil means homogeneous (all 1.0). Models stragglers in the
	// otherwise identical cluster.
	NodeSpeed func(rank int64) float64
	// Fault optionally injects deterministic, seeded perturbations into
	// the simulated cluster: CPU stragglers, link slowdowns, per-message
	// wire jitter, message loss with timeout/backoff retransmits, and
	// transient node pauses. A plan with zero intensity (the zero value)
	// leaves the simulation byte-identical to the fault-free one.
	Fault fault.Plan
	// Metrics enables the phase-accounting pass: the engine records a
	// string-free per-activity interval log and Simulate aggregates it into
	// Result.Obs (busy/idle/queue-wait per resource, overlap efficiency,
	// fault counters). Cheaper than Trace — no labels are materialized —
	// but still adds one log append per activity; sweeps leave it off
	// unless they report the metrics.
	Metrics bool
}

// Result of one simulation.
type Result struct {
	// Result carries the makespan plus, when Config.Trace is set, the full
	// execution trace.
	simnet.Result
	NumTiles    int
	NumMessages int
	// CPUUtilization is the mean utilization across all CPU resources — the
	// paper's "100% processor utilization" claim for the overlapped
	// schedule is checked against this.
	CPUUtilization float64
	// CritPath is the chain of activities fixing the makespan (populated
	// only when Config.Trace is set); see simnet.CriticalPath.
	CritPath []simnet.CritStep
	// Obs is the phase-accounting report (populated only when
	// Config.Metrics is set): per-resource busy/idle/queue-wait, overlap
	// efficiency, and fault counters. Cached Results share one Report;
	// treat it as read-only.
	Obs *obs.Report
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Topo.ts == nil {
		return fmt.Errorf("sim: topology missing; build it with BoxTopology")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Mode != Blocking && c.Mode != Overlapped {
		return fmt.Errorf("sim: unknown mode %d", int(c.Mode))
	}
	if c.Cap != CapNone && c.Cap != CapDMA && c.Cap != CapFullDuplex {
		return fmt.Errorf("sim: unknown capability %d", int(c.Cap))
	}
	if c.Network != Switched && c.Network != SharedBus {
		return fmt.Errorf("sim: unknown network model %d", int(c.Network))
	}
	if err := c.Interconnect.Validate(); err != nil {
		return err
	}
	if !c.Interconnect.Flat() && c.Network != Switched {
		return fmt.Errorf("sim: hierarchical interconnect %v requires the switched network model", c.Interconnect)
	}
	if c.NodeSpeed != nil {
		for p := int64(0); p < c.Topo.m.NumProcs(); p++ {
			if s := c.NodeSpeed(p); !(s > 0) || math.IsInf(s, 0) {
				return fmt.Errorf("sim: speed %g for node %d is not finite and positive", s, p)
			}
		}
	}
	return c.Fault.Validate()
}

// node bundles the per-processor resources.
type node struct {
	cpu     *simnet.Resource
	commIn  *simnet.Resource
	commOut *simnet.Resource
}

// message tracks one tile-to-tile transfer. Tiles are identified by their
// rank in the tile space; trace labels delinearize the ranks.
type message struct {
	fromRank int64
	toRank   int64
	fromProc int64
	toProc   int64
	bytes    int64
	// ready is the wire's last stage (B1), which the blocking receive
	// waits on. The sender sets it.
	ready  *simnet.Activity
	posted *simnet.Activity // overlapped A3 that posted the receive buffer
}

// Simulator runs simulations while reusing one discrete-event engine — and
// all of its slab, heap and edge memory — and one graph builder, with its
// per-run arrays and message arena, across runs. Sweeps reach it through a
// Cache, which pools Simulators so that each miss reuses one. A Simulator is
// not safe for concurrent use.
type Simulator struct {
	eng *simnet.Engine
	b   builder
}

// NewSimulator returns a Simulator with a fresh reusable engine.
func NewSimulator() *Simulator {
	return &Simulator{eng: simnet.NewEngine()}
}

// Simulate runs the configured schedule on the simulated cluster, reusing
// the Simulator's engine memory.
func (sm *Simulator) Simulate(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sm.eng.Reset()
	b := &sm.b
	b.reset(cfg, sm.eng)
	if err := b.build(); err != nil {
		return Result{}, err
	}
	res, err := sm.eng.Run()
	if err != nil {
		return Result{}, err
	}
	cpuUtil := 0.0
	if res.Makespan > 0 {
		for i := range b.nodes {
			cpuUtil += b.nodes[i].cpu.BusyTime()
		}
		cpuUtil /= res.Makespan * float64(len(b.nodes))
	}
	out := Result{
		Result:         res,
		NumTiles:       b.numTiles,
		NumMessages:    b.numMsgs,
		CPUUtilization: cpuUtil,
	}
	if cfg.Trace {
		out.CritPath = sm.eng.CriticalPath()
	}
	if cfg.Metrics {
		out.Obs = b.obsReport(res.Makespan)
	}
	return out, nil
}

// Simulate runs the configured schedule on the simulated cluster with a
// one-shot engine. Callers running many simulations should hold a Simulator
// (or use a Cache) to amortize the engine's memory.
func Simulate(cfg Config) (Result, error) {
	return NewSimulator().Simulate(cfg)
}

// BuildStats constructs the activity graph for cfg without running it and
// reports its size. It exists so builder-layer performance (BenchmarkSimBuild)
// is measurable separately from engine-layer performance.
func BuildStats(cfg Config) (activities, messages int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	var b builder
	b.reset(cfg, simnet.NewEngine())
	if err := b.build(); err != nil {
		return 0, 0, err
	}
	return b.eng.NumActivities(), b.numMsgs, nil
}
