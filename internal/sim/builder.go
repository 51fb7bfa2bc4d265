package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/ilmath"
	"repro/internal/simnet"
)

// builder constructs the simnet activity graph for one Config.
//
// All bookkeeping is integer-indexed: a tile is identified by its
// lexicographic rank in the tile space (the coordinates packed into one
// int64 via the space's extents), processors by their rank, and the
// inbox/outbox indexes are flat (proc, step)-addressed slices whose buckets
// are carved out of a single backing array sized numTiles × deps up front.
// Messages live in a chunked arena. Human-readable activity labels are only
// materialized when Config.Trace is set; untraced sweeps run label-free. A
// Simulator keeps one builder and rewinds it for every run (reset), so
// these arrays and the arena are allocated once, not once per run.
type builder struct {
	cfg    Config
	eng    *simnet.Engine
	nodes  []node
	bus    *simnet.Resource // the single medium in SharedBus mode
	fabric *simnet.Fabric   // hierarchical links, nil when Interconnect is flat
	hops   []simnet.Hop     // reusable route buffer (wire() is serial)
	trace  bool

	numProcs int64
	steps    int64 // tiles per processor (extent of the mapping dimension)
	numTiles int
	numMsgs  int

	// tiles[p*steps+s] describes the tile processor p runs at local step s.
	tiles []tileInfo
	// inbox[p*steps+s] lists messages consumed by that tile; outbox the
	// messages it produces. Bucket capacity is deps.Len() each, carved out
	// of backing.
	inbox   [][]*message
	outbox  [][]*message
	backing []*message
	// computeActs[tileRank] is the A2 activity of each tile emitted so far.
	computeActs []*simnet.Activity
	// prevCPU[p] is the last activity in processor p's program order.
	prevCPU []*simnet.Activity
	msgs    msgArena

	// Fault counters for the metrics report, tallied during construction
	// (the perturbations are deterministic, so build-time counts equal
	// run-time counts). linkRetx is keyed fromProc*numProcs+toProc and
	// allocated lazily — fault-free builds never touch it.
	retransmits int
	pauseCount  int
	linkRetx    map[int64]int
}

// tileInfo is the precomputed per-tile record the walk runs on, so it never
// touches coordinate vectors (trace labels delinearize the rank).
type tileInfo struct {
	rank   int64 // lexicographic rank in the tile space
	volume int64 // iteration points (boundary tiles may be smaller)
}

// msgArena allocates messages in chunked slabs: pointers stay stable while
// the arena grows, and the whole graph's messages amount to a handful of
// allocations instead of one per dependence edge. A rewound arena (n = 0)
// hands its chunks out again.
type msgArena struct {
	chunks [][]message
	n      int
}

const msgChunkSize = 512

func (a *msgArena) alloc() *message {
	chunk, idx := a.n/msgChunkSize, a.n%msgChunkSize
	if chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]message, msgChunkSize))
	}
	a.n++
	return &a.chunks[chunk][idx]
}

// reset rewinds b for a run of cfg on eng. It keeps the arrays of the run
// before, and the arena's chunks, for the next build to reuse.
func (b *builder) reset(cfg Config, eng *simnet.Engine) {
	*b = builder{
		cfg: cfg, eng: eng, trace: cfg.Trace,
		hops:  b.hops[:0],
		nodes: b.nodes, tiles: b.tiles, computeActs: b.computeActs, prevCPU: b.prevCPU,
		inbox: b.inbox, outbox: b.outbox, backing: b.backing,
		msgs: msgArena{chunks: b.msgs.chunks},
	}
}

// zeroed returns s cut to length n and cleared, or a fresh slice when s has
// too little capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// procRank computes Map.ProcRank(tc) without materializing the projected
// processor coordinate: it linearizes tc over the processor space, skipping
// the mapping dimension.
func (b *builder) procRank(tc ilmath.Vec) int64 {
	m := b.cfg.Topo.m
	if len(tc) == 1 {
		return 0
	}
	ps := m.ProcSpace
	var r int64
	pi := 0
	for d := 0; d < len(tc); d++ {
		if d == m.MapDim {
			continue
		}
		r = r*ps.Extent(pi) + (tc[d] - ps.Lower[pi])
		pi++
	}
	return r
}

func (b *builder) build() error {
	b.eng.KeepTrace(b.trace)
	b.eng.KeepIntervals(b.cfg.Metrics)
	if err := b.makeNodes(); err != nil {
		return err
	}
	b.collectMessages()
	// Pre-size the engine: per tile one compute, per message at most 6
	// activities and ~12 edges (bus stage included), plus 2·Levels hops on a
	// hierarchical interconnect; a fault plan adds a pause per tile and up
	// to 2·MaxResend activities (retransmission + timeout) per message.
	acts, edges := b.numTiles+6*b.numMsgs+1, 2*b.numTiles+12*b.numMsgs
	if lv := b.cfg.Interconnect.Levels; lv > 0 {
		acts += 2 * lv * b.numMsgs
		edges += 2 * lv * b.numMsgs
	}
	if fp := &b.cfg.Fault; fp.Active() {
		acts += b.numTiles + 2*fp.MaxResend*b.numMsgs
		edges += b.numTiles + 2*fp.MaxResend*b.numMsgs
	}
	b.eng.Reserve(acts, edges)
	b.walk()
	return nil
}

// makeNodes creates the per-processor resources according to the hardware
// capability, plus the hierarchical fabric's link resources when the
// interconnect is not flat. Resource names are only rendered when tracing;
// the engine identifies resources by pointer.
func (b *builder) makeNodes() error {
	n := b.cfg.Topo.m.NumProcs()
	b.numProcs = n
	b.nodes = zeroed(b.nodes, int(n))
	if !b.cfg.Interconnect.Flat() {
		f, err := simnet.NewFabric(b.eng, b.cfg.Interconnect, n, b.trace)
		if err != nil {
			return err
		}
		b.fabric = f
	}
	rname := func(format string, p int64) string {
		if !b.trace {
			return ""
		}
		return fmt.Sprintf(format, p)
	}
	if b.cfg.Network == SharedBus {
		busName := ""
		if b.trace {
			busName = "bus"
		}
		b.bus = b.eng.NewResource(busName)
	}
	for p := int64(0); p < n; p++ {
		cpu := b.eng.NewResource(rname("cpu%d", p))
		var in, out *simnet.Resource
		switch b.cfg.Cap {
		case CapFullDuplex:
			in = b.eng.NewResource(rname("rx%d", p))
			out = b.eng.NewResource(rname("tx%d", p))
		default: // CapNone, CapDMA: one half-duplex comm channel
			ch := b.eng.NewResource(rname("comm%d", p))
			in, out = ch, ch
		}
		b.nodes[p] = node{cpu: cpu, commIn: in, commOut: out}
	}
	b.installPerturb()
	return nil
}

// installPerturb registers the engine-level duration hook that slows
// single resources, when a NodeSpeed or an active fault plan asks for one.
// Work on processor p's CPU is divided by NodeSpeed(p), then scaled by the
// plan's straggler factor; each communication port is scaled by the plan's
// link slowdown factor (rx port 2p, tx port 2p+1, shared bus −1).
// Per-message jitter and retransmissions are handled structurally in
// wire(); resources without an entry — fabric links among them — pass
// through unchanged.
func (b *builder) installPerturb() {
	speed, fp := b.cfg.NodeSpeed, &b.cfg.Fault
	if speed == nil && !fp.Active() {
		return
	}
	type scale struct{ div, mul float64 }
	scales := make(map[*simnet.Resource]scale, 3*len(b.nodes)+1)
	for p := range b.nodes {
		n := &b.nodes[p]
		cpu := scale{1, fp.CPUFactor(int64(p))}
		if speed != nil {
			cpu.div = speed(int64(p))
		}
		scales[n.cpu] = cpu
		// With a single half-duplex channel commIn == commOut: the rx-port
		// factor is assigned first and the tx write below overwrites it, so
		// the shared channel deterministically carries the tx-port factor.
		scales[n.commIn] = scale{1, fp.LinkFactor(2 * int64(p))}
		scales[n.commOut] = scale{1, fp.LinkFactor(2*int64(p) + 1)}
	}
	if b.bus != nil {
		scales[b.bus] = scale{1, fp.LinkFactor(-1)}
	}
	b.eng.SetPerturb(func(r *simnet.Resource, d float64) float64 {
		if s, ok := scales[r]; ok {
			return d / s.div * s.mul
		}
		return d
	})
}

// collectMessages enumerates every tile and every processor offset of the
// topology, filling the per-tile records and creating a message for each
// offset whose sending tile exists and ships a non-empty box, indexed by
// the sender's and receiver's (proc, step) slots. A message stays on its
// step, so both slots share it.
func (b *builder) collectMessages() {
	topo := &b.cfg.Topo
	ts, cross, n := topo.ts, topo.cross, topo.ts.Dim()
	b.steps = topo.m.TilesPerProc()
	nSlots := int(b.numProcs * b.steps)
	mapDim := topo.m.MapDim

	b.tiles = zeroed(b.tiles, nSlots)
	b.computeActs = zeroed(b.computeActs, int(ts.Volume()))
	// One backing array for every inbox and outbox bucket: a tile has at
	// most one in-edge and one out-edge per processor offset.
	nc := len(cross)
	b.backing = zeroed(b.backing, 2*nSlots*nc)
	b.inbox = zeroed(b.inbox, nSlots)
	b.outbox = zeroed(b.outbox, nSlots)
	for i := 0; i < nSlots; i++ {
		in := i * nc
		out := (nSlots + i) * nc
		b.inbox[i] = b.backing[in : in : in+nc]
		b.outbox[i] = b.backing[out : out : out+nc]
	}

	var rank int64 // Points runs in lexicographic order: the tile's rank
	ts.Points(func(tc ilmath.Vec) bool {
		b.numTiles++
		toProc := b.procRank(tc)
		step := tc[mapDim]
		slot := toProc*b.steps + step
		var shape int64
		for i, x := range tc {
			if x == topo.last[i] {
				shape += topo.stride[i]
			}
		}
		ti := &b.tiles[slot]
		*ti = tileInfo{rank: rank, volume: topo.vol[shape]}
		rank++
	crossings:
		for k, c := range cross {
			// The sender sits one tile lower in each crossed dimension, so
			// it is never the clipped last tile there.
			from := shape
			for dir := c.dir; dir != 0; dir &= dir - 1 {
				i := n - 1 - bits.TrailingZeros64(dir)
				if tc[i] == 0 {
					continue crossings
				}
				if tc[i] == topo.last[i] {
					from -= topo.stride[i]
				}
			}
			bytes := topo.bytes[from*int64(nc)+int64(k)]
			if bytes <= 0 {
				continue // empty transfer: no message, no dependence edge
			}
			fromProc := toProc - c.proc
			msg := b.msgs.alloc()
			*msg = message{
				fromRank: ti.rank - c.rank,
				toRank:   ti.rank,
				fromProc: fromProc,
				toProc:   toProc,
				bytes:    bytes,
			}
			b.numMsgs++
			fromSlot := fromProc*b.steps + step
			b.outbox[fromSlot] = append(b.outbox[fromSlot], msg)
			b.inbox[slot] = append(b.inbox[slot], msg)
		}
		return true
	})
}

// mlabel renders a message-activity label ("prefixFROM->TO", or "<-" with
// the operands swapped) only when tracing.
func (b *builder) mlabel(prefix string, m *message, recv bool) string {
	if !b.trace {
		return ""
	}
	ts := b.cfg.Topo.ts
	from, to := ts.Delinearize(m.fromRank), ts.Delinearize(m.toRank)
	if recv {
		return fmt.Sprintf("%s%v<-%v", prefix, to, from)
	}
	return fmt.Sprintf("%s%v->%v", prefix, from, to)
}

// onCPU emits an activity of duration d on processor p's CPU and appends it
// to that processor's program order.
func (b *builder) onCPU(p int64, d float64, label string) *simnet.Activity {
	a := b.eng.NewActivity(b.nodes[p].cpu, d, label)
	if prev := b.prevCPU[p]; prev != nil {
		b.eng.AddDep(prev, a)
	}
	b.prevCPU[p] = a
	return a
}

// walk emits the schedule in one pass over the tiles, step by step and,
// within a step, processor by processor. Each tile appends its CPU program
// to its processor's chain; the mode decides only which message ops come
// before and after the compute. Blocking (ProcB, Section 3): receive,
// compute, send, all copies on the CPU. Overlapped (ProcNB, Section 4):
// send step s−1's results (A1), compute (A2), post step s+1's receives
// (A3); step 0 posts its own receives first and an epilogue sends the last
// step's results. A message stays on its step and goes to a processor of
// higher rank, so its sender tile comes before its receiver tile: the
// sender creates the wire stages once, predecessor attached.
func (b *builder) walk() {
	ov := b.cfg.Mode == Overlapped
	b.prevCPU = zeroed(b.prevCPU, int(b.numProcs))
	for s := int64(0); s < b.steps; s++ {
		for p := int64(0); p < b.numProcs; p++ {
			slot := p*b.steps + s
			b.pause(p, s)
			switch {
			case !ov:
				for _, m := range b.inbox[slot] {
					b.recv(p, m)
				}
			case s == 0:
				for _, m := range b.inbox[slot] {
					b.post(p, m)
				}
			default:
				for _, m := range b.outbox[slot-1] {
					b.isend(p, m)
				}
			}
			// A2. Under Overlapped it waits on the B2 of every inbound
			// message; isend adds those edges, one step later.
			ti := &b.tiles[slot]
			label := ""
			if b.trace {
				label = fmt.Sprintf("compute%v", b.cfg.Topo.ts.Delinearize(ti.rank))
			}
			comp := b.onCPU(p, float64(ti.volume)*b.cfg.Machine.Tc, label)
			b.computeActs[ti.rank] = comp
			switch {
			case !ov:
				for _, m := range b.outbox[slot] {
					b.send(p, m, comp)
				}
			case s+1 < b.steps:
				for _, m := range b.inbox[slot+1] {
					b.post(p, m)
				}
			}
		}
	}
	if ov {
		for p := int64(0); p < b.numProcs; p++ {
			for _, m := range b.outbox[p*b.steps+b.steps-1] {
				b.isend(p, m)
			}
		}
	}
}

// pause chains the fault plan's transient node pause (if any) onto
// processor p's CPU program order ahead of its step-s tile work.
func (b *builder) pause(p, s int64) {
	if d := b.cfg.Fault.Pause(p, s); d > 0 {
		b.pauseCount++
		label := ""
		if b.trace {
			label = fmt.Sprintf("pause p%d s%d", p, s)
		}
		b.onCPU(p, d, label)
	}
}

// recv is the blocking receive: kernel→user copy (B2) and MPI-buffer
// preparation (A3) on the CPU, once the data has left the wire (B1).
func (b *builder) recv(p int64, m *message) {
	mch := b.cfg.Machine
	r := b.onCPU(p, mch.FillKernel(m.bytes)+mch.FillMPI(m.bytes), b.mlabel("recv", m, true))
	b.eng.AddDep(m.ready, r)
}

// send is the blocking send: MPI-buffer fill (A1) and kernel copy (B3) on
// the CPU after the tile's compute, then the wire stages.
func (b *builder) send(p int64, m *message, comp *simnet.Activity) {
	mch := b.cfg.Machine
	a := b.onCPU(p, mch.FillMPI(m.bytes)+mch.FillKernel(m.bytes), b.mlabel("send", m, false))
	b.eng.AddDep(comp, a)
	m.ready = b.wire(m, a)
}

// post is the overlapped A3: the CPU posts m's receive buffer.
func (b *builder) post(p int64, m *message) {
	m.posted = b.onCPU(p, b.cfg.Machine.FillMPI(m.bytes), b.mlabel("irecv", m, true))
}

// isend is the overlapped send of m: A1 on the CPU after the producing
// tile's compute, B3, the wire stages, then B2 at the receiver once its
// buffer is posted. B2 gates the consuming compute.
func (b *builder) isend(p int64, m *message) {
	a1 := b.onCPU(p, b.cfg.Machine.FillMPI(m.bytes), b.mlabel("isend", m, false))
	b.eng.AddDep(b.computeActs[m.fromRank], a1)
	b3 := b.kcopy(p, b.nodes[p].commOut, m, b.mlabel("kcopy-tx", m, false))
	b.eng.AddDep(a1, b3)
	b1 := b.wire(m, b3)
	b2 := b.kcopy(m.toProc, b.nodes[m.toProc].commIn, m, b.mlabel("kcopy-rx", m, true))
	b.eng.AddDep(b1, b2)
	b.eng.AddDep(m.posted, b2)
	// The consumer, on the sender's step, was emitted before this send.
	b.eng.AddDep(b2, b.computeActs[m.toRank])
}

// kcopy emits a kernel-buffer copy of m at processor p on res, or on p's
// CPU (outside its program order) when the node has no DMA.
func (b *builder) kcopy(p int64, res *simnet.Resource, m *message, label string) *simnet.Activity {
	d := b.cfg.Machine.FillKernel(m.bytes)
	if b.cfg.Cap == CapNone {
		res = b.nodes[p].cpu
	}
	return b.eng.NewActivity(res, d, label)
}

// wire emits the transmission stage(s) of a message after predecessor pred
// and returns the arrival activity the receiver side can depend on. On a
// switched network this is B4 (sender tx port) followed by B1 (receiver rx
// port); on a shared bus it is a single occupancy of the one medium.
//
// Under an active fault plan the tx stage becomes a retransmission chain:
// each lost attempt burns its (jittered) wire time on the tx port, then the
// port sits on the retransmission timer (timeout × backoff^attempt) before
// re-occupying itself with the next attempt. Only the final, successful
// attempt feeds the bus/rx stages. The plan caps the attempt count, so the
// chain is finite and the loss model degrades rather than deadlocks.
func (b *builder) wire(m *message, pred *simnet.Activity) *simnet.Activity {
	tx := b.nodes[m.fromProc].commOut
	base := b.cfg.Machine.Wire(m.bytes)
	fp := &b.cfg.Fault // an inactive plan loses nothing and jitters by 1
	resends := fp.Resends(m.fromRank, m.toRank)
	if resends > 0 {
		b.retransmits += resends
		if b.linkRetx == nil {
			b.linkRetx = make(map[int64]int)
		}
		b.linkRetx[m.fromProc*b.numProcs+m.toProc] += resends
	}
	prev := pred
	for attempt := 0; attempt <= resends; attempt++ {
		dur := base * fp.WireFactor(m.fromRank, m.toRank, attempt)
		a := b.eng.NewActivity(tx, dur, b.mlabel("wire-tx", m, false))
		b.eng.AddDep(prev, a)
		prev = a
		if attempt < resends {
			// Lost attempt: the sender's NIC waits out the retransmission
			// timeout (with exponential backoff) before trying again.
			to := b.eng.NewActivity(tx, fp.RetryDelay(base, attempt),
				b.mlabel("retx-timeout", m, false))
			b.eng.AddDep(a, to)
			prev = to
		}
	}
	last := prev
	if b.fabric != nil {
		// Hierarchical interconnect: the message climbs the sender-side
		// uplinks and descends the receiver-side downlinks between the tx
		// and rx ports. Each hop occupies its link for the unjittered wire
		// time scaled by the link's bandwidth factor, plus the per-hop
		// latency (fault jitter and loss live on the node ports; the fabric
		// is the deterministic part of the path).
		b.hops = b.fabric.Route(m.fromProc, m.toProc, b.hops[:0])
		for _, h := range b.hops {
			a := b.eng.NewActivity(h.Res, base/h.BW+h.Latency,
				b.mlabel("wire-hop", m, false))
			b.eng.AddDep(last, a)
			last = a
		}
	}
	if b.cfg.Network == SharedBus {
		// The shared medium is an extra arbitration stage between the tx
		// and rx ports: every message in the cluster serializes through it.
		w := b.eng.NewActivity(b.bus, base, b.mlabel("wire-bus", m, false))
		b.eng.AddDep(last, w)
		last = w
	}
	b1 := b.eng.NewActivity(b.nodes[m.toProc].commIn, base, b.mlabel("wire-rx", m, true))
	b.eng.AddDep(last, b1)
	return b1
}
