package simnet

import (
	"testing"

	"repro/internal/topo"
)

// TestFabricRouteShape checks hop sequences against the fat-tree routing
// rules: climb sender-side uplinks to the lowest common level, descend
// receiver-side downlinks.
func TestFabricRouteShape(t *testing.T) {
	e := NewEngine()
	// 4 nodes per edge switch, 2 edge switches per aggregation switch.
	f, err := NewFabric(e, topo.FatTree(4, 2, 2, 4, 1e-6, 1), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to int64
		names    []string
	}{
		{0, 3, nil},                          // same edge switch: no hops
		{0, 4, []string{"up0.0", "down0.1"}}, // same pod, different edge
		{0, 9, []string{"up0.0", "up1.0", "down1.1", "down0.2"}}, // across the core
		{9, 0, []string{"up0.2", "up1.1", "down1.0", "down0.0"}}, // reverse path uses its own links
	}
	for _, c := range cases {
		hops := f.Route(c.from, c.to, nil)
		if len(hops) != len(c.names) {
			t.Fatalf("Route(%d,%d): %d hops, want %d", c.from, c.to, len(hops), len(c.names))
		}
		for i, h := range hops {
			if h.Res.Name != c.names[i] {
				t.Errorf("Route(%d,%d) hop %d = %q, want %q", c.from, c.to, i, h.Res.Name, c.names[i])
			}
		}
	}
	// Level-0 hops carry level-0 parameters, level-1 hops level-1's.
	hops := f.Route(0, 9, nil)
	if hops[0].BW != 2 || hops[1].BW != 4 {
		t.Errorf("hop bandwidth factors = %g, %g; want 2, 4", hops[0].BW, hops[1].BW)
	}
}

// TestFabricFlat checks the zero spec builds no links and routes in zero
// hops — the old single-switch machine.
func TestFabricFlat(t *testing.T) {
	e := NewEngine()
	f, err := NewFabric(e, topo.Spec{}, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.up)+len(f.down) != 0 {
		t.Errorf("flat fabric has %d link levels, want 0", len(f.up)+len(f.down))
	}
	if hops := f.Route(0, 7, nil); len(hops) != 0 {
		t.Errorf("flat route has %d hops, want 0", len(hops))
	}
	if len(e.resources) != 0 {
		t.Errorf("flat fabric registered %d resources, want 0", len(e.resources))
	}
}

// TestFabricContentionGolden runs two simultaneous cross-switch transfers
// through a shared uplink and asserts the exact event times: the golden
// small-scale check that uplink contention serializes flows the way the
// two-level model says it should.
//
// Topology: 4 nodes, 2 per edge switch, one uplink of bandwidth 2× and
// latency 1s per hop. Node-link wire time is 4s, so each switch hop takes
// 4/2 + 1 = 3s. Transfers 0→2 and 1→3 both climb up0.0 and descend
// down0.1.
func TestFabricContentionGolden(t *testing.T) {
	e := NewEngine()
	f, err := NewFabric(e, topo.TwoLevel(2, 2, 1.0, 1), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	const wire = 4.0
	tx := []*Resource{e.NewResource("tx0"), e.NewResource("tx1")}
	rx := []*Resource{nil, nil, e.NewResource("rx2"), e.NewResource("rx3")}

	send := func(from, to int64) *Activity {
		prev := e.NewActivity(tx[from], wire, "wire-tx")
		for _, h := range f.Route(from, to, nil) {
			a := e.NewActivity(h.Res, wire/h.BW+h.Latency, "hop")
			e.AddDep(prev, a)
			prev = a
		}
		a := e.NewActivity(rx[to], wire, "wire-rx")
		e.AddDep(prev, a)
		return a
	}
	a := send(0, 2)
	b := send(1, 3)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Flow A: tx [0,4], up [4,7], down [7,10], rx [10,14].
	if a.Start != 10 || a.End != 14 {
		t.Errorf("flow A rx ran [%g,%g], want [10,14]", a.Start, a.End)
	}
	// Flow B queues behind A on the shared uplink: tx [0,4], up [7,10]
	// (3s of contention wait), down [10,13], rx [13,17].
	if b.Start != 13 || b.End != 17 {
		t.Errorf("flow B rx ran [%g,%g], want [13,17]", b.Start, b.End)
	}
	if res.Makespan != 17 {
		t.Errorf("makespan = %g, want 17", res.Makespan)
	}
	// The shared uplink carried both flows for 3s each.
	up := f.up[0][0]
	if up.BusyTime() != 6 {
		t.Errorf("uplink busy time = %g, want 6", up.BusyTime())
	}
}
