package simnet

import "testing"

// buildPipeline registers a two-resource pipelined graph and returns the
// nic and the expected makespan: n stages of work 1 on cpu feeding work 2
// on nic.
func buildPipeline(e *Engine, n int) (*Resource, float64) {
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	var prev *Activity
	for i := 0; i < n; i++ {
		c := e.NewActivity(cpu, 1, "c")
		if prev != nil {
			e.AddDep(prev, c)
		}
		x := e.NewActivity(nic, 2, "x")
		e.AddDep(c, x)
		prev = c
	}
	// cpu chain takes n, the last transmit finishes 2 after the last
	// compute, and the nic is the bottleneck once it fills: 1 + 2n.
	return nic, float64(1 + 2*n)
}

// TestEngineReset: a Reset engine reproduces a fresh engine's results
// exactly, across several reuse generations and changing graph sizes.
func TestEngineReset(t *testing.T) {
	reused := NewEngine()
	for gen, n := range []int{5, 17, 3, 64} {
		reused.Reset()
		nic, want := buildPipeline(reused, n)
		got, err := reused.Run()
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		fresh := NewEngine()
		freshNIC, _ := buildPipeline(fresh, n)
		ref, err := fresh.Run()
		if err != nil {
			t.Fatalf("gen %d fresh: %v", gen, err)
		}
		if got.Makespan != ref.Makespan || got.Makespan != want {
			t.Errorf("gen %d: makespan %g (fresh %g, want %g)", gen, got.Makespan, ref.Makespan, want)
		}
		if nic.BusyTime() != freshNIC.BusyTime() || nic.BusyTime() != float64(2*n) {
			t.Errorf("gen %d: nic busy %g (fresh %g, want %d): busy time drifted across reuse",
				gen, nic.BusyTime(), freshNIC.BusyTime(), 2*n)
		}
	}
}

// TestResetAbandonsTrace: a trace handed out by Run survives the engine's
// next generation untouched.
func TestResetAbandonsTrace(t *testing.T) {
	e := NewEngine()
	e.KeepTrace(true)
	buildPipeline(e, 2)
	r1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Trace) != 4 {
		t.Fatalf("trace has %d entries, want 4", len(r1.Trace))
	}
	snapshot := append([]TraceEntry(nil), r1.Trace...)
	e.Reset()
	e.KeepTrace(true)
	buildPipeline(e, 3)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if r1.Trace[i] != snapshot[i] {
			t.Fatalf("entry %d of the first run's trace was clobbered by reuse", i)
		}
	}
}
