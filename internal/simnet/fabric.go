package simnet

import (
	"fmt"

	"repro/internal/topo"
)

// Hop is one switch-to-switch stage of a routed transfer: the link resource
// it occupies, the link's bandwidth factor relative to a node link (a
// message of node-link wire time t holds the resource for t/BW), and the
// fixed per-traversal latency to add on top.
type Hop struct {
	Res     *Resource
	BW      float64
	Latency float64
}

// Fabric materializes a hierarchical interconnect (topo.Spec) as engine
// resources: per level, every switch gets its group of parallel uplinks and
// an equal group of downlinks (switch ports are full-duplex; contention is
// per direction). A transfer between nodes under different edge switches
// climbs the sender-side uplinks to the lowest common level and descends
// the receiver-side downlinks — each hop a serially-shared Resource, so
// uplink contention emerges from the discrete-event engine exactly like CPU
// or NIC contention does.
//
// A Fabric is built per simulation (its resources die with the engine's
// Reset) and is allocation-lean: one slice per level per direction, no
// per-message allocation — Route appends into a caller-owned hop buffer.
type Fabric struct {
	spec  topo.Spec
	nodes int64
	// up[l] and down[l] hold the level-l link resources, indexed by
	// switch*Uplinks+k. Built bottom-up, so iteration order (and therefore
	// resource ID assignment) is deterministic.
	up   [][]*Resource
	down [][]*Resource
}

// NewFabric registers the link resources of spec for a machine of `nodes`
// compute nodes on the engine. Resource names are rendered only when named
// is set (labels cost allocations metric-only sweeps refuse to pay); the
// synthesized names ("up0.3", "down1.0") match what internal/obs
// classifies. A flat spec yields a Fabric that routes every pair in zero
// hops.
func NewFabric(e *Engine, spec topo.Spec, nodes int64, named bool) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("simnet: fabric needs a positive node count, got %d", nodes)
	}
	f := &Fabric{spec: spec, nodes: nodes}
	if spec.Flat() {
		return f, nil
	}
	f.up = make([][]*Resource, spec.Levels)
	f.down = make([][]*Resource, spec.Levels)
	for l := 0; l < spec.Levels; l++ {
		sw := spec.Switches(l, nodes)
		k := int64(spec.L[l].Uplinks)
		f.up[l] = make([]*Resource, sw*k)
		f.down[l] = make([]*Resource, sw*k)
		for s := int64(0); s < sw; s++ {
			for u := int64(0); u < k; u++ {
				f.up[l][s*k+u] = e.NewResource(linkName(named, "up", l, s*k+u))
				f.down[l][s*k+u] = e.NewResource(linkName(named, "down", l, s*k+u))
			}
		}
	}
	return f, nil
}

// linkName renders "up<level>.<index>" where index is the link's position in
// its level's direction group (switch×Uplinks+uplink), or "" for unnamed
// builds. internal/obs parses exactly this shape back.
func linkName(named bool, dir string, level int, index int64) string {
	if !named {
		return ""
	}
	return fmt.Sprintf("%s%d.%d", dir, level, index)
}

// Route appends the switch hops of a from→to transfer to hops and returns
// the extended slice: uplinks of levels 0..common−1 on the sender side,
// then downlinks of levels common−1..0 on the receiver side. Same-edge
// pairs (and every pair on a flat fabric) append nothing — the transfer is
// node-port-to-node-port, exactly the old single-switch model. Route is
// deterministic: the same pair always yields the same hop sequence over the
// same uplink choices.
func (f *Fabric) Route(from, to int64, hops []Hop) []Hop {
	if f.spec.Flat() || from == to {
		return hops
	}
	common := f.spec.CommonLevel(from, to)
	for l := 0; l < common; l++ {
		lv := f.spec.L[l]
		k := int64(lv.Uplinks)
		sw := f.spec.SwitchOf(l, from)
		u := int64(f.spec.UplinkIndex(l, from, to))
		hops = append(hops, Hop{Res: f.up[l][sw*k+u], BW: lv.BW, Latency: lv.Latency})
	}
	for l := common - 1; l >= 0; l-- {
		lv := f.spec.L[l]
		k := int64(lv.Uplinks)
		sw := f.spec.SwitchOf(l, to)
		u := int64(f.spec.UplinkIndex(l, from, to))
		hops = append(hops, Hop{Res: f.down[l][sw*k+u], BW: lv.BW, Latency: lv.Latency})
	}
	return hops
}

// Links visits every link resource in deterministic order (level by level,
// uplinks before downlinks, switch-major), passing the level, direction and
// the link's index within its level's direction group. The observability
// report uses it to synthesize per-level tracks for unnamed builds.
func (f *Fabric) Links(visit func(level int, up bool, index int, r *Resource)) {
	for l := range f.up {
		for i, r := range f.up[l] {
			visit(l, true, i, r)
		}
		for i, r := range f.down[l] {
			visit(l, false, i, r)
		}
	}
}
