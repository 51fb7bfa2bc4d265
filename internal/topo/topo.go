package topo

import "fmt"

// MaxLevels bounds the switch hierarchy depth. Three levels (edge,
// aggregation, core) cover every fat-tree in production use; the bound is
// what lets Spec stay a fixed-size comparable value usable as a cache-key
// field.
const MaxLevels = 3

// Level describes one tier of switches.
type Level struct {
	// Radix is how many children each switch at this level has: compute
	// nodes at level 0, level-(l−1) switches above. Must be ≥ 2.
	Radix int
	// BW is the bandwidth of one uplink leaving this level, as a multiple
	// of a node's own link bandwidth: a message of wire time t on the node
	// link occupies the uplink for t/BW. Must be > 0.
	BW float64
	// Latency is the fixed time added per traversal of a link at this
	// level (switch forwarding plus cable flight time), in seconds.
	Latency float64
	// Uplinks is how many parallel uplinks each switch at this level has
	// toward the level above; flows spread over them deterministically
	// (ECMP by source/destination rank). Must be ≥ 1.
	Uplinks int
}

// Spec is a hierarchical interconnect: Levels tiers of switches between the
// compute nodes and an implicit full-bandwidth core. The zero Spec means
// "flat": every node hangs off one non-blocking switch, the machine model
// the reproduction started with. Spec is a plain comparable value so it can
// ride inside simulation cache keys.
type Spec struct {
	// Levels is how many switch tiers are modeled (0 = flat). Switches at
	// the top modeled level all connect to one implicit non-blocking core.
	Levels int
	// L[0:Levels] describes the tiers bottom-up: L[0] is the edge tier
	// whose switches the nodes plug into.
	L [MaxLevels]Level
}

// TwoLevel builds the common cluster shape: nodes grouped radix-per-edge
// switch, edge switches uplinked (uplinks parallel links, each bw× a node
// link, latency seconds per hop) into a non-blocking core.
func TwoLevel(radix int, bw float64, latency float64, uplinks int) Spec {
	return Spec{
		Levels: 1,
		L: [MaxLevels]Level{
			{Radix: radix, BW: bw, Latency: latency, Uplinks: uplinks},
		},
	}
}

// FatTree builds a three-tier (edge, aggregation, core) topology. radix0
// nodes share an edge switch; radix1 edge switches share an aggregation
// switch; aggregation switches connect to the implicit core. Bandwidth
// typically grows toward the core (bw1 ≥ bw0) to keep the tree from
// thinning too fast.
func FatTree(radix0, radix1 int, bw0, bw1 float64, latency float64, uplinks int) Spec {
	return Spec{
		Levels: 2,
		L: [MaxLevels]Level{
			{Radix: radix0, BW: bw0, Latency: latency, Uplinks: uplinks},
			{Radix: radix1, BW: bw1, Latency: latency, Uplinks: uplinks},
		},
	}
}

// Flat reports whether the spec is the flat single-switch machine.
func (s Spec) Flat() bool { return s.Levels == 0 }

// Validate checks the spec's shape.
func (s Spec) Validate() error {
	if s.Levels < 0 || s.Levels > MaxLevels {
		return fmt.Errorf("topo: %d levels out of range [0, %d]", s.Levels, MaxLevels)
	}
	for l := 0; l < s.Levels; l++ {
		lv := s.L[l]
		if lv.Radix < 2 {
			return fmt.Errorf("topo: level %d radix %d < 2", l, lv.Radix)
		}
		if lv.BW <= 0 {
			return fmt.Errorf("topo: level %d bandwidth factor %g <= 0", l, lv.BW)
		}
		if lv.Latency < 0 {
			return fmt.Errorf("topo: level %d latency %g < 0", l, lv.Latency)
		}
		if lv.Uplinks < 1 {
			return fmt.Errorf("topo: level %d uplinks %d < 1", l, lv.Uplinks)
		}
	}
	for l := s.Levels; l < MaxLevels; l++ {
		if s.L[l] != (Level{}) {
			return fmt.Errorf("topo: level %d set beyond Levels=%d", l, s.Levels)
		}
	}
	return nil
}

// GroupSize returns how many nodes share a switch at the given level: the
// product of the radixes of levels 0..level. Level must be in [0, Levels).
func (s Spec) GroupSize(level int) int64 {
	g := int64(1)
	for l := 0; l <= level; l++ {
		g *= int64(s.L[l].Radix)
	}
	return g
}

// Switches returns how many switches the given level needs for a machine of
// `nodes` compute nodes (the last switch may be partially populated).
func (s Spec) Switches(level int, nodes int64) int64 {
	g := s.GroupSize(level)
	return (nodes + g - 1) / g
}

// SwitchOf returns which level-`level` switch node n hangs under.
func (s Spec) SwitchOf(level int, n int64) int64 {
	return n / s.GroupSize(level)
}

// CommonLevel returns the lowest level at which nodes a and b share a
// switch: 0 means same edge switch (no uplink hops), Levels means the
// message must cross the implicit core (climbing every modeled tier).
func (s Spec) CommonLevel(a, b int64) int {
	for l := 0; l < s.Levels; l++ {
		if s.SwitchOf(l, a) == s.SwitchOf(l, b) {
			return l
		}
	}
	return s.Levels
}

// UplinkIndex picks which of the level's parallel uplinks the (from, to)
// flow rides: deterministic ECMP by a multiplicative hash of the rank pair,
// so the same flow always uses the same uplink (replays are bit-identical)
// while distinct flows spread across the link group.
func (s Spec) UplinkIndex(level int, from, to int64) int {
	n := s.L[level].Uplinks
	if n <= 1 {
		return 0
	}
	// Fibonacci hashing on the packed pair: cheap, stateless, and spreads
	// consecutive rank pairs across uplinks far better than a plain mod.
	h := uint64(from)<<32 ^ uint64(to)
	h *= 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(n))
}

// String renders the spec compactly ("flat", "radix32×bw4.0", ...).
func (s Spec) String() string {
	if s.Flat() {
		return "flat"
	}
	out := ""
	for l := 0; l < s.Levels; l++ {
		if l > 0 {
			out += "/"
		}
		out += fmt.Sprintf("radix%d×bw%g×%d", s.L[l].Radix, s.L[l].BW, s.L[l].Uplinks)
	}
	return out
}
