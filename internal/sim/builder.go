package sim

import (
	"fmt"

	"repro/internal/fault"
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
// materialized when Config.Trace is set; untraced sweeps run label-free.
type builder struct {
	cfg    Config
	eng    *simnet.Engine
	nodes  []node
	bus    *simnet.Resource // the single medium in SharedBus mode
	fabric *simnet.Fabric   // hierarchical links, nil when Interconnect is flat
	hops   []simnet.Hop     // reusable route buffer (wire() is serial)
	trace  bool
	// fp is the active fault plan, nil when Config.Fault is absent or has
	// zero intensity — the fault-free build path stays byte-identical.
	fp *fault.Plan

	numProcs int64
	steps    int64 // tiles per processor (extent of the mapping dimension)
	numTiles int
	numMsgs  int

	// tiles[p*steps+s] describes the tile processor p runs at local step s.
	tiles []tileInfo
	// inbox[p*steps+s] lists messages consumed by that tile; outbox the
	// messages it produces. Bucket capacity is deps.Len() each.
	inbox  [][]*message
	outbox [][]*message
	// computeActs[tileRank] is the A2 activity of each tile.
	computeActs []*simnet.Activity
	msgs        msgArena

	// Fault counters for the metrics report, tallied during construction
	// (the perturbations are deterministic, so build-time counts equal
	// run-time counts). linkRetx is keyed fromProc*numProcs+toProc and
	// allocated lazily — fault-free builds never touch it.
	retransmits int
	pauseCount  int
	linkRetx    map[int64]int
}

// tileInfo is the precomputed per-tile record the emission passes run on,
// so they never touch coordinate vectors (except for trace labels).
type tileInfo struct {
	rank   int64      // lexicographic rank in the tile space
	volume int64      // iteration points (boundary tiles may be smaller)
	exists bool       // the (proc, step) slot holds a tile of the space
	coord  ilmath.Vec // populated only when tracing, for labels
}

// msgArena allocates messages in chunked slabs: pointers stay stable while
// the arena grows, and the whole graph's messages amount to a handful of
// allocations instead of one per dependence edge.
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

func newBuilder(cfg Config, eng *simnet.Engine) *builder {
	b := &builder{cfg: cfg, eng: eng, trace: cfg.Trace}
	if cfg.Fault != nil && cfg.Fault.Active() {
		b.fp = cfg.Fault
	}
	return b
}

// speed returns node p's CPU speed factor (1.0 when homogeneous).
func (b *builder) speed(p int64) float64 {
	if b.cfg.NodeSpeed == nil {
		return 1
	}
	return b.cfg.NodeSpeed(p)
}

// procRank computes Map.ProcRank(tc) without materializing the projected
// processor coordinate: it linearizes tc over the processor space, skipping
// the mapping dimension.
func (b *builder) procRank(tc ilmath.Vec) int64 {
	m := b.cfg.Topo.Map
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
	// Pre-size the engine: each tile emits one compute plus a few activities
	// and edges per message (at most 6 activities and ~12 edges per message
	// across both modes, bus stage included). A hierarchical interconnect
	// adds up to 2·Levels hop activities (one edge each) per message. An
	// active fault plan can add a pause per tile and up to 2·MaxResend
	// activities (retransmission + timeout) per message.
	acts, edges := b.numTiles+6*b.numMsgs+1, 2*b.numTiles+12*b.numMsgs
	if lv := b.cfg.Interconnect.Levels; lv > 0 {
		acts += 2 * lv * b.numMsgs
		edges += 2 * lv * b.numMsgs
	}
	if b.fp != nil {
		acts += b.numTiles + 2*b.fp.MaxResend*b.numMsgs
		edges += b.numTiles + 2*b.fp.MaxResend*b.numMsgs
	}
	b.eng.Reserve(acts, edges)
	switch b.cfg.Mode {
	case Blocking:
		b.buildBlocking()
	case Overlapped:
		b.buildOverlapped()
	}
	return nil
}

// makeNodes creates the per-processor resources according to the hardware
// capability, plus the hierarchical fabric's link resources when the
// interconnect is not flat. Resource names are only rendered when tracing;
// the engine identifies resources by pointer.
func (b *builder) makeNodes() error {
	n := b.cfg.Topo.Map.NumProcs()
	b.numProcs = n
	b.nodes = make([]node, n)
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
	if b.fp != nil {
		b.installPerturb()
	}
	return nil
}

// installPerturb registers the engine-level duration hook carrying the
// fault plan's per-resource factors: CPU straggler factors on each
// processor's CPU, link slowdown factors on each communication port (rx
// port 2p, tx port 2p+1, shared bus −1). Per-message jitter and
// retransmissions are handled structurally in wire(); resources without a
// factor — fabric links among them — pass through unchanged.
func (b *builder) installPerturb() {
	factors := make(map[*simnet.Resource]float64, 3*len(b.nodes)+1)
	for p := range b.nodes {
		n := &b.nodes[p]
		factors[n.cpu] = b.fp.CPUFactor(int64(p))
		// With a single half-duplex channel commIn == commOut: the rx-port
		// factor is assigned first and the tx write below overwrites it, so
		// the shared channel deterministically carries the tx-port factor.
		factors[n.commIn] = b.fp.LinkFactor(2 * int64(p))
		factors[n.commOut] = b.fp.LinkFactor(2*int64(p) + 1)
	}
	if b.bus != nil {
		factors[b.bus] = b.fp.LinkFactor(-1)
	}
	b.eng.SetPerturb(func(r *simnet.Resource, d float64) float64 {
		if f, ok := factors[r]; ok {
			return d * f
		}
		return d
	})
}

// collectMessages enumerates every tile and every tiled dependence, filling
// the per-tile records and creating a message for each cross-processor edge,
// indexed by the sender's and receiver's (proc, step) slots.
func (b *builder) collectMessages() {
	topo := b.cfg.Topo
	ts := topo.TileSpace
	m := topo.Map
	b.steps = m.TilesPerProc()
	nSlots := int(b.numProcs * b.steps)
	nDeps := b.cfg.Deps.Len()
	depVecs := b.cfg.Deps.Vectors()

	b.tiles = make([]tileInfo, nSlots)
	b.computeActs = make([]*simnet.Activity, ts.Volume())
	// One backing array for every inbox and outbox bucket: a tile has at
	// most one in-edge and one out-edge per dependence vector.
	backing := make([]*message, 2*nSlots*nDeps)
	b.inbox = make([][]*message, nSlots)
	b.outbox = make([][]*message, nSlots)
	for i := 0; i < nSlots; i++ {
		in := i * nDeps
		out := (nSlots + i) * nDeps
		b.inbox[i] = backing[in : in : in+nDeps]
		b.outbox[i] = backing[out : out : out+nDeps]
	}

	mapDim := m.MapDim
	mapLower := ts.Lower[mapDim]
	from := make(ilmath.Vec, ts.Dim())
	ts.Points(func(tc ilmath.Vec) bool {
		b.numTiles++
		toProc := b.procRank(tc)
		toStep := tc[mapDim] - mapLower
		slot := toProc*b.steps + toStep
		ti := &b.tiles[slot]
		ti.rank = ts.Linearize(tc)
		ti.volume = topo.TileVolume(tc)
		ti.exists = true
		if b.trace {
			ti.coord = tc.Clone()
		}
		for i := 0; i < nDeps; i++ {
			d := depVecs[i]
			for j := range tc {
				from[j] = tc[j] - d[j]
			}
			if !ts.Contains(from) {
				continue
			}
			fromProc := b.procRank(from)
			if fromProc == toProc {
				continue // intra-processor dependence: no message
			}
			bytes := topo.MsgBytes(from, tc)
			if bytes <= 0 {
				continue // empty transfer (e.g. an empty tile of a skewed
				// tiling's bounding box): no message, no dependence edge
			}
			msg := b.msgs.alloc()
			*msg = message{
				fromRank: ts.Linearize(from),
				toRank:   ti.rank,
				fromProc: fromProc,
				toProc:   toProc,
				bytes:    bytes,
			}
			if b.trace {
				msg.from = from.Clone()
				msg.to = tc.Clone()
			}
			b.numMsgs++
			fromStep := from[mapDim] - mapLower
			fromSlot := fromProc*b.steps + fromStep
			b.outbox[fromSlot] = append(b.outbox[fromSlot], msg)
			b.inbox[slot] = append(b.inbox[slot], msg)
		}
		return true
	})
}

// inboxAt returns the messages consumed by processor p's step-s tile;
// out-of-range steps (the s+1 lookahead past the last step) yield nil.
func (b *builder) inboxAt(p, s int64) []*message {
	if s < 0 || s >= b.steps {
		return nil
	}
	return b.inbox[p*b.steps+s]
}

// mlabel renders a message-activity label ("prefixFROM->TO", or "<-" with
// the operands swapped) only when tracing.
func (b *builder) mlabel(prefix string, m *message, recv bool) string {
	if !b.trace {
		return ""
	}
	if recv {
		return fmt.Sprintf("%s%v<-%v", prefix, m.to, m.from)
	}
	return fmt.Sprintf("%s%v->%v", prefix, m.from, m.to)
}

// tlabel renders a tile-activity label only when tracing.
func (b *builder) tlabel(prefix string, ti *tileInfo) string {
	if !b.trace {
		return ""
	}
	return fmt.Sprintf("%s%v", prefix, ti.coord)
}

// plabel renders a pause-activity label only when tracing.
func (b *builder) plabel(p, s int64) string {
	if !b.trace {
		return ""
	}
	return fmt.Sprintf("pause p%d s%d", p, s)
}

// pause chains the fault plan's transient node pause (if any) onto
// processor p's CPU program order ahead of its step-s tile work.
func (b *builder) pause(p, s int64, chain func(int64, *simnet.Activity) *simnet.Activity) {
	if b.fp == nil {
		return
	}
	if d := b.fp.Pause(p, s); d > 0 {
		b.pauseCount++
		chain(p, b.eng.NewActivity(b.nodes[p].cpu, d, b.plabel(p, s)))
	}
}

// buildBlocking emits the ProcB structure of Section 5: for every local
// step, blocking receives (CPU copies in), compute, blocking sends (CPU
// copies out). The wire transfer itself rides the comm channels.
//
// Per message: sender CPU does A1+B3 as one "send" op, then B4 occupies the
// sender's tx channel and B1 the receiver's rx channel; the receiver's CPU
// "recv" op (B2+A3) runs when the data has arrived and it is that
// processor's turn in its program order.
func (b *builder) buildBlocking() {
	mch := b.cfg.Machine
	prevCPU := make([]*simnet.Activity, len(b.nodes))

	chain := func(p int64, a *simnet.Activity) *simnet.Activity {
		if prevCPU[p] != nil {
			b.eng.AddDep(prevCPU[p], a)
		}
		prevCPU[p] = a
		return a
	}

	for s := int64(0); s < b.steps; s++ {
		for p := int64(0); p < b.numProcs; p++ {
			slot := p*b.steps + s
			ti := &b.tiles[slot]
			if !ti.exists {
				continue
			}
			cpu := b.nodes[p].cpu
			b.pause(p, s, chain)
			// Blocking receives: copy kernel→user (B2) and prepare the MPI
			// buffer (A3) on the CPU, after the data hit the wire's end.
			for _, m := range b.inbox[slot] {
				recv := b.eng.NewActivity(cpu,
					(mch.FillKernel(m.bytes)+mch.FillMPI(m.bytes))/b.speed(p),
					b.mlabel("recv", m, true))
				chain(p, recv)
				b.eng.AddDep(b.ensureWire(m), recv)
				m.dataReady = recv
			}
			// Compute.
			comp := b.eng.NewActivity(cpu,
				float64(ti.volume)*mch.Tc/b.speed(p),
				b.tlabel("compute", ti))
			chain(p, comp)
			b.computeActs[ti.rank] = comp
			// Blocking sends: fill MPI buffer (A1) + kernel copy (B3) on
			// CPU, then the wire stages.
			for _, m := range b.outbox[slot] {
				send := b.eng.NewActivity(cpu,
					(mch.FillMPI(m.bytes)+mch.FillKernel(m.bytes))/b.speed(p),
					b.mlabel("send", m, false))
				chain(p, send)
				b.eng.AddDep(comp, send)
				b.queueWire(m, send)
			}
		}
	}
	// Consumption edges are implicit: each tile's inbound receive ops
	// precede its compute in the same step's CPU chain, and the inbox is
	// indexed by the consuming step, so no cross-step edges remain.
}

// buildOverlapped emits the ProcNB structure: at local step s the CPU does
// A1 (sends of step s−1 results), A2 (compute), A3 (posting receives for
// step s+1); kernel copies ride the DMA engines (or the CPU when the node
// has none) and the wire rides the comm channels.
func (b *builder) buildOverlapped() {
	mch := b.cfg.Machine
	prevCPU := make([]*simnet.Activity, len(b.nodes))

	chain := func(p int64, a *simnet.Activity) *simnet.Activity {
		if prevCPU[p] != nil {
			b.eng.AddDep(prevCPU[p], a)
		}
		prevCPU[p] = a
		return a
	}

	postRecv := func(p int64, m *message) {
		a := b.eng.NewActivity(b.nodes[p].cpu, mch.FillMPI(m.bytes)/b.speed(p),
			b.mlabel("irecv", m, true))
		chain(p, a)
		m.posted = a
	}

	issueSend := func(p int64, m *message) {
		// A1: CPU fills the MPI send buffer.
		a1 := b.eng.NewActivity(b.nodes[p].cpu, mch.FillMPI(m.bytes)/b.speed(p),
			b.mlabel("isend", m, false))
		chain(p, a1)
		// The data being sent was produced by the 'from' tile's compute.
		if comp := b.computeActs[m.fromRank]; comp != nil {
			b.eng.AddDep(comp, a1)
		}
		// B3: kernel copy, on DMA or CPU depending on capability.
		b3res := b.nodes[p].commOut
		b3dur := mch.FillKernel(m.bytes)
		if b.cfg.Cap == CapNone {
			b3res = b.nodes[p].cpu
			b3dur /= b.speed(p)
		}
		b3 := b.eng.NewActivity(b3res, b3dur, b.mlabel("kcopy-tx", m, false))
		b.eng.AddDep(a1, b3)
		// B4 wire out, then B1 wire in at the receiver (or one shared-bus
		// occupancy).
		b1 := b.wire(m, b3)
		// B2: receiver kernel→MPI-buffer copy; requires the posted receive.
		b2res := b.nodes[m.toProc].commIn
		b2dur := mch.FillKernel(m.bytes)
		if b.cfg.Cap == CapNone {
			b2res = b.nodes[m.toProc].cpu
			b2dur /= b.speed(m.toProc)
		}
		b2 := b.eng.NewActivity(b2res, b2dur, b.mlabel("kcopy-rx", m, true))
		b.eng.AddDep(b1, b2)
		if m.posted != nil {
			b.eng.AddDep(m.posted, b2)
		}
		// Consumption edge: construction runs by step, then processor, so
		// the consuming compute may already exist (its sender comes later in
		// the same sweep); otherwise the compute's emission adds the edge.
		if comp := b.computeActs[m.toRank]; comp != nil {
			b.eng.AddDep(b2, comp)
		}
		m.dataReady = b2
		m.sendQueued = true
	}

	for s := int64(0); s < b.steps; s++ {
		for p := int64(0); p < b.numProcs; p++ {
			slot := p*b.steps + s
			ti := &b.tiles[slot]
			if !ti.exists {
				continue
			}
			cpu := b.nodes[p].cpu
			b.pause(p, s, chain)
			// Prologue at s = 0: post receives for this first tile's own
			// inputs (the pseudocode pre-posts them before the loop).
			if s == 0 {
				for _, m := range b.inbox[slot] {
					postRecv(p, m)
				}
			}
			// A1 phase: send the results produced at step s−1.
			if s > 0 {
				for _, m := range b.outbox[slot-1] {
					issueSend(p, m)
				}
			}
			// A2: compute, gated on all inbound data for this tile (a
			// message not issued yet gets its edge from issueSend).
			comp := b.eng.NewActivity(cpu,
				float64(ti.volume)*mch.Tc/b.speed(p),
				b.tlabel("compute", ti))
			chain(p, comp)
			b.computeActs[ti.rank] = comp
			for _, m := range b.inbox[slot] {
				if m.dataReady != nil {
					b.eng.AddDep(m.dataReady, comp)
				}
			}
			// A3 phase: post receives for step s+1's inputs.
			for _, m := range b.inboxAt(p, s+1) {
				postRecv(p, m)
			}
		}
	}
	// Epilogue: results of the last local step still have to be sent.
	for p := int64(0); p < b.numProcs; p++ {
		for _, m := range b.outbox[p*b.steps+b.steps-1] {
			if !m.sendQueued {
				issueSend(p, m)
			}
		}
	}
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
	resends := 0
	if b.fp != nil {
		resends = b.fp.Resends(m.fromRank, m.toRank)
		if resends > 0 {
			b.retransmits += resends
			if b.linkRetx == nil {
				b.linkRetx = make(map[int64]int)
			}
			b.linkRetx[m.fromProc*b.numProcs+m.toProc] += resends
		}
	}
	var b4, prev *simnet.Activity
	for attempt := 0; attempt <= resends; attempt++ {
		dur := base
		if b.fp != nil {
			dur *= b.fp.WireFactor(m.fromRank, m.toRank, attempt)
		}
		a := b.eng.NewActivity(tx, dur, b.mlabel("wire-tx", m, false))
		if prev != nil {
			b.eng.AddDep(prev, a)
		} else {
			if pred != nil {
				b.eng.AddDep(pred, a)
			}
			b4 = a // the first attempt is what the sender CPU op gates
		}
		prev = a
		if attempt < resends {
			// Lost attempt: the sender's NIC waits out the retransmission
			// timeout (with exponential backoff) before trying again.
			to := b.eng.NewActivity(tx, b.fp.RetryDelay(base, attempt),
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
		w := b.eng.NewActivity(b.bus, b.cfg.Machine.Wire(m.bytes),
			b.mlabel("wire-bus", m, false))
		b.eng.AddDep(last, w)
		last = w
	}
	b1 := b.eng.NewActivity(b.nodes[m.toProc].commIn, b.cfg.Machine.Wire(m.bytes),
		b.mlabel("wire-rx", m, true))
	b.eng.AddDep(last, b1)
	m.wireIn = b1
	m.wireOut = b4
	return b1
}

// ensureWire lazily creates the wire pipeline of a blocking-mode message
// and returns the arrival activity. The sender CPU op is attached later via
// queueWire.
func (b *builder) ensureWire(m *message) *simnet.Activity {
	if m.wireIn != nil {
		return m.wireIn
	}
	return b.wire(m, nil)
}

// queueWire attaches the sender's CPU send op as the predecessor of the
// message's wire pipeline.
func (b *builder) queueWire(m *message, send *simnet.Activity) {
	b.ensureWire(m)
	b.eng.AddDep(send, m.wireOut)
	m.sendQueued = true
}
