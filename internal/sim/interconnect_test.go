package sim

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/topo"
)

// TestInterconnectSameSwitchIdentity: a hierarchy whose edge switch holds
// every processor routes every message in zero hops, so the result is
// bit-identical to the flat machine.
func TestInterconnectSameSwitchIdentity(t *testing.T) {
	g := model.Grid3D{I: 8, J: 8, K: 64, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	for _, mode := range []Mode{Blocking, Overlapped} {
		flat, err := SimulateGrid(g, 8, m, mode, CapDMA, GridOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wide, err := SimulateGrid(g, 8, m, mode, CapDMA, GridOpts{
			Interconnect: topo.TwoLevel(16, 4, 1e-6, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if wide.Makespan != flat.Makespan {
			t.Errorf("%v: same-switch hierarchy makespan %g != flat %g",
				mode, wide.Makespan, flat.Makespan)
		}
	}
}

// TestInterconnectSlowsCrossSwitchTraffic: splitting the 16 processors over
// edge switches forces cross-switch messages through uplink hops, so the
// makespan can only grow relative to the flat machine; thinner uplinks grow
// it further.
func TestInterconnectSlowsCrossSwitchTraffic(t *testing.T) {
	g := model.Grid3D{I: 8, J: 8, K: 64, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	flat, err := SimulateGrid(g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SimulateGrid(g, 8, m, Overlapped, CapDMA, GridOpts{
		Interconnect: topo.TwoLevel(4, 4, 1e-5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	thin, err := SimulateGrid(g, 8, m, Overlapped, CapDMA, GridOpts{
		Interconnect: topo.TwoLevel(4, 0.25, 1e-5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan <= flat.Makespan {
		t.Errorf("hierarchical makespan %g not above flat %g", fast.Makespan, flat.Makespan)
	}
	if thin.Makespan <= fast.Makespan {
		t.Errorf("quarter-bandwidth uplinks (%g) not slower than 4x uplinks (%g)",
			thin.Makespan, fast.Makespan)
	}
}

// TestInterconnectValidate: a hierarchical spec on the shared-bus network is
// rejected (the bus already is the degenerate one-link topology), as is a
// malformed spec.
func TestInterconnectValidate(t *testing.T) {
	g := model.Grid3D{I: 4, J: 4, K: 8, PI: 2, PJ: 2}
	m := model.PentiumCluster()
	_, err := SimulateGrid(g, 2, m, Blocking, CapDMA, GridOpts{
		Net:          SharedBus,
		Interconnect: topo.TwoLevel(2, 1, 0, 1),
	})
	if err == nil {
		t.Error("hierarchical interconnect on shared bus not rejected")
	}
	_, err = SimulateGrid(g, 2, m, Blocking, CapDMA, GridOpts{
		Interconnect: topo.Spec{Levels: 1}, // zero radix
	})
	if err == nil {
		t.Error("malformed interconnect spec not rejected")
	}
}

// TestInterconnectObsReport checks the per-level link accounting: a
// metrics-only run reports LinkLevels with real busy time, and the report is
// identical to the one rebuilt from a traced run's named resources — the
// synthesized link names round-trip through obs.classify.
func TestInterconnectObsReport(t *testing.T) {
	g := model.Grid3D{I: 8, J: 8, K: 64, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	spec := topo.FatTree(4, 2, 2, 4, 1e-5, 2)
	res, err := SimulateGrid(g, 8, m, Overlapped, CapDMA, GridOpts{
		Interconnect: spec, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Obs
	if rep == nil {
		t.Fatal("metrics run returned no obs report")
	}
	if len(rep.LinkLevels) != spec.Levels {
		t.Fatalf("got %d link levels, want %d", len(rep.LinkLevels), spec.Levels)
	}
	for _, ll := range rep.LinkLevels {
		if ll.Busy <= 0 || ll.Activities == 0 {
			t.Errorf("level %d carried no traffic: %+v", ll.Level, ll)
		}
		if ll.Idle != float64(ll.Links)*rep.Makespan-ll.Busy {
			t.Errorf("level %d idle identity violated: %+v", ll.Level, ll)
		}
	}

	traced, err := SimulateGrid(g, 8, m, Overlapped, CapDMA, GridOpts{
		Interconnect: spec, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := obs.Analyze(traced.Makespan, obs.TracksFromTrace(traced.Trace))
	// The trace never mentions resources that executed nothing, so the
	// metrics report may list extra all-idle links; every resource the
	// traced report does have must match the metrics one exactly.
	byName := make(map[string]obs.ResourceStats, len(rep.Resources))
	for _, st := range rep.Resources {
		byName[st.Name] = st
	}
	for _, st := range rep2.Resources {
		if got, ok := byName[st.Name]; !ok {
			t.Errorf("traced resource %q missing from metrics report", st.Name)
		} else if got != st {
			t.Errorf("resource %q differs: metrics %+v, traced %+v", st.Name, got, st)
		}
	}
	if len(rep2.LinkLevels) != len(rep.LinkLevels) {
		t.Fatalf("link level count differs: %d vs %d", len(rep.LinkLevels), len(rep2.LinkLevels))
	}
	for i := range rep.LinkLevels {
		a, b := rep.LinkLevels[i], rep2.LinkLevels[i]
		// Links (and therefore Idle) can differ by the idle links the trace
		// omits; the traffic aggregates must agree exactly.
		if a.Busy != b.Busy || a.QueueWait != b.QueueWait ||
			a.Activities != b.Activities || a.MaxBusy != b.MaxBusy {
			t.Errorf("link level %d traffic differs: metrics %+v, traced %+v", i, a, b)
		}
	}
}

// TestInterconnectCacheKey: the hierarchy is part of the cache key — the
// same grid point under different specs must not collapse onto one entry.
func TestInterconnectCacheKey(t *testing.T) {
	g := model.Grid3D{I: 8, J: 8, K: 64, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	c := NewCache()
	flat, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{
		Interconnect: topo.TwoLevel(4, 0.25, 1e-5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Makespan == hier.Makespan {
		t.Error("distinct interconnects returned one makespan: cache key ignores the spec")
	}
	if st := c.Stats(); st.Evals != 2 || st.Entries != 2 {
		t.Errorf("cache stats %+v, want 2 evals and 2 entries", st)
	}
}
