package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
)

var faultTestGrid = model.Grid3D{I: 8, J: 8, K: 512, PI: 2, PJ: 2}

func faultedConfig(t *testing.T, mode Mode, cap Capability, fp fault.Plan) Config {
	t.Helper()
	cfg, err := GridConfig(faultTestGrid, 64, model.PentiumCluster(), mode, cap)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fp
	return cfg
}

// TestFaultReplayable: the same (seed, intensity) must give bit-identical
// makespans across fresh simulators and across Engine.Reset reuse, with an
// unrelated simulation interleaved on the same engine.
func TestFaultReplayable(t *testing.T) {
	fp := fault.Default(17, 0.8)
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := faultedConfig(t, mode, CapDMA, fp)
		fresh, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm := NewSimulator()
		first, err := sm.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave a different (fault-free) simulation, then replay.
		if _, err := sm.Simulate(faultedConfig(t, mode, CapDMA, fault.Plan{})); err != nil {
			t.Fatal(err)
		}
		replay, err := sm.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.Makespan != fresh.Makespan || replay.Makespan != fresh.Makespan {
			t.Errorf("%v: makespans diverge: fresh %v, reused-engine %v, after-reset %v",
				mode, fresh.Makespan, first.Makespan, replay.Makespan)
		}
	}
}

// TestFaultZeroIntensityIdentical: a zero-intensity plan must leave the
// whole Result bit-identical to the fault-free simulation.
func TestFaultZeroIntensityIdentical(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		for _, cap := range []Capability{CapNone, CapDMA, CapFullDuplex} {
			base, err := Simulate(faultedConfig(t, mode, cap, fault.Plan{}))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(faultedConfig(t, mode, cap, fault.Default(99, 0)))
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != base.Makespan ||
				got.CPUUtilization != base.CPUUtilization ||
				got.NumTiles != base.NumTiles ||
				got.NumMessages != base.NumMessages {
				t.Errorf("%v/%v: zero-intensity plan changed the result: %+v vs %+v",
					mode, cap, got, base)
			}
		}
	}
}

// TestFaultMakespanNotBelowBaseline: faults only add work, so a faulted
// makespan can never beat the fault-free one.
func TestFaultMakespanNotBelowBaseline(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		base, err := Simulate(faultedConfig(t, mode, CapDMA, fault.Plan{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, intensity := range []float64{0.25, 0.5, 1} {
			r, err := Simulate(faultedConfig(t, mode, CapDMA, fault.Default(3, intensity)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Makespan < base.Makespan {
				t.Errorf("%v intensity %g: faulted makespan %g below fault-free %g",
					mode, intensity, r.Makespan, base.Makespan)
			}
		}
	}
}

// TestFaultRetransmitsGrowGraph: message loss must materialize as extra
// retransmission/timeout activities in the DAG.
func TestFaultRetransmitsGrowGraph(t *testing.T) {
	base, msgs, err := BuildStats(faultedConfig(t, Overlapped, CapDMA, fault.Plan{}))
	if err != nil {
		t.Fatal(err)
	}
	lossy := fault.Default(5, 1)
	lossy.LossProb = 0.5 // every other attempt lost on average
	faulted, fmsgs, err := BuildStats(faultedConfig(t, Overlapped, CapDMA, lossy))
	if err != nil {
		t.Fatal(err)
	}
	if fmsgs != msgs {
		t.Errorf("message count changed under faults: %d vs %d", fmsgs, msgs)
	}
	if faulted <= base {
		t.Errorf("lossy plan built %d activities, want more than the fault-free %d", faulted, base)
	}
}

// TestFaultCachedMatchesDirect: the memo cache keyed on the plan must hand
// back the same result as a direct simulation, and an inactive plan must
// share its entry with the plain path.
func TestFaultCachedMatchesDirect(t *testing.T) {
	c := NewCache()
	m := model.PentiumCluster()
	fp := fault.Default(23, 0.5)
	direct, err := SimulateGrid(faultTestGrid, 64, m, Overlapped, CapDMA, GridOpts{Fault: fp})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := c.SimulateGridCtx(context.Background(), faultTestGrid, 64, m, Overlapped, CapDMA, GridOpts{Fault: fp})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Makespan != direct.Makespan {
		t.Errorf("cached %v != direct %v", cached.Makespan, direct.Makespan)
	}
	if _, err := c.SimulateGridCtx(context.Background(), faultTestGrid, 64, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	n := c.Stats().Entries
	// An inactive plan canonicalizes onto the plain entry: no new key.
	if _, err := c.SimulateGridCtx(context.Background(), faultTestGrid, 64, m, Overlapped, CapDMA, GridOpts{Fault: fault.Default(23, 0)}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != n {
		t.Errorf("inactive plan created a new cache entry (%d -> %d)", n, c.Stats().Entries)
	}
}
