package simnet

import (
	"math"
	"testing"
)

func TestSingleActivity(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	e.NewActivity(cpu, 5, "work")
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 5 {
		t.Errorf("makespan = %g, want 5", r.Makespan)
	}
	if u := cpu.BusyTime() / r.Makespan; u != 1.0 {
		t.Errorf("utilization = %g, want 1", u)
	}
}

func TestChainSerializes(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	a := e.NewActivity(cpu, 2, "a")
	b := e.NewActivity(cpu, 3, "b")
	c := e.NewActivity(cpu, 4, "c")
	e.AddDep(a, b)
	e.AddDep(b, c)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 9 {
		t.Errorf("makespan = %g, want 9", r.Makespan)
	}
	if a.End != 2 || b.Start != 2 || b.End != 5 || c.Start != 5 {
		t.Errorf("chain times wrong: a=[%g,%g] b=[%g,%g] c=[%g,%g]",
			a.Start, a.End, b.Start, b.End, c.Start, c.End)
	}
}

func TestParallelResourcesOverlap(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	a := e.NewActivity(cpu, 10, "compute")
	b := e.NewActivity(nic, 7, "transfer")
	_ = a
	_ = b
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 {
		t.Errorf("makespan = %g, want 10 (independent resources overlap)", r.Makespan)
	}
}

func TestSameResourceSerializesIndependentWork(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	e.NewActivity(cpu, 4, "x")
	e.NewActivity(cpu, 6, "y")
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 {
		t.Errorf("makespan = %g, want 10 (serialized on one resource)", r.Makespan)
	}
}

func TestFIFOByReadyTime(t *testing.T) {
	// b becomes ready at 1 (after a on another resource), c at 0.
	// The shared resource must run c first.
	e := NewEngine()
	r1 := e.NewResource("r1")
	shared := e.NewResource("shared")
	a := e.NewActivity(r1, 1, "a")
	b := e.NewActivity(shared, 5, "b")
	c := e.NewActivity(shared, 5, "c")
	e.AddDep(a, b)
	_, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != 0 {
		t.Errorf("c.Start = %g, want 0 (ready first)", c.Start)
	}
	if b.Start != 5 {
		t.Errorf("b.Start = %g, want 5", b.Start)
	}
}

func TestTieBreakByCreationOrder(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	x := e.NewActivity(cpu, 1, "x")
	y := e.NewActivity(cpu, 1, "y")
	_, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if x.Start != 0 || y.Start != 1 {
		t.Errorf("creation-order tie-break violated: x@%g y@%g", x.Start, y.Start)
	}
}

func TestDiamondDependency(t *testing.T) {
	// a -> b, a -> c, {b,c} -> d; b and c on distinct resources.
	e := NewEngine()
	r0 := e.NewResource("r0")
	r1 := e.NewResource("r1")
	r2 := e.NewResource("r2")
	a := e.NewActivity(r0, 1, "a")
	b := e.NewActivity(r1, 3, "b")
	c := e.NewActivity(r2, 5, "c")
	d := e.NewActivity(r0, 1, "d")
	e.AddDep(a, b)
	e.AddDep(a, c)
	e.AddDep(b, d)
	e.AddDep(c, d)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 6 {
		t.Errorf("d.Start = %g, want 6 (after slower branch)", d.Start)
	}
	if r.Makespan != 7 {
		t.Errorf("makespan = %g, want 7", r.Makespan)
	}
}

func TestCycleDetection(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	a := e.NewActivity(cpu, 1, "a")
	b := e.NewActivity(cpu, 1, "b")
	e.AddDep(a, b)
	e.AddDep(b, a)
	if _, err := e.Run(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestZeroDurationActivities(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	a := e.NewActivity(cpu, 0, "sync")
	b := e.NewActivity(cpu, 2, "work")
	e.AddDep(a, b)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 2 {
		t.Errorf("makespan = %g, want 2", r.Makespan)
	}
}

func TestEmptyEngine(t *testing.T) {
	e := NewEngine()
	e.NewResource("cpu")
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 {
		t.Errorf("makespan = %g, want 0", r.Makespan)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	for name, f := range map[string]func(){
		"nil resource":      func() { e.NewActivity(nil, 1, "x") },
		"negative duration": func() { e.NewActivity(cpu, -1, "x") },
		"nan duration":      func() { e.NewActivity(cpu, math.NaN(), "x") },
		"nil dep":           func() { e.AddDep(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTraceRecording(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	e.KeepTrace(true)
	a := e.NewActivity(cpu, 2, "first")
	b := e.NewActivity(cpu, 3, "second")
	e.AddDep(a, b)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != 2 {
		t.Fatalf("trace has %d entries, want 2", len(r.Trace))
	}
	if r.Trace[0].Label != "first" || r.Trace[1].Label != "second" {
		t.Errorf("trace order wrong: %+v", r.Trace)
	}
	if r.Trace[1].Start != 2 || r.Trace[1].End != 5 {
		t.Errorf("trace times wrong: %+v", r.Trace[1])
	}
}

func TestUtilization(t *testing.T) {
	e := NewEngine()
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	a := e.NewActivity(cpu, 4, "compute")
	b := e.NewActivity(nic, 4, "send")
	e.AddDep(a, b)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Resource{cpu, nic} {
		if u := res.BusyTime() / r.Makespan; u != 0.5 {
			t.Errorf("%s utilization = %g, want 0.5", res.Name, u)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (*Engine, []*Activity) {
		e := NewEngine()
		cpus := []*Resource{e.NewResource("c0"), e.NewResource("c1")}
		var acts []*Activity
		for i := 0; i < 50; i++ {
			a := e.NewActivity(cpus[i%2], float64(1+i%7), "a")
			acts = append(acts, a)
			if i > 0 && i%3 == 0 {
				e.AddDep(acts[i-1], a)
			}
			if i > 4 && i%5 == 0 {
				e.AddDep(acts[i-4], a)
			}
		}
		return e, acts
	}
	e1, a1 := build()
	e2, a2 := build()
	r1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("non-deterministic makespan: %g vs %g", r1.Makespan, r2.Makespan)
	}
	for i := range a1 {
		if a1[i].Start != a2[i].Start || a1[i].End != a2[i].End {
			t.Fatalf("non-deterministic activity %d", i)
		}
	}
}

// TestPipelineOverlapCanonical builds the paper's canonical 3-stage pipeline
// shape: N steps where CPU work of step k overlaps the NIC transfer of step
// k−1's output. With cpu=c per step and wire=w per step (w < c), the
// makespan must be N·c + w (the last transfer peeking out), versus the
// serialized N·(c+w).
func TestPipelineOverlapCanonical(t *testing.T) {
	const n = 10
	e := NewEngine()
	cpu := e.NewResource("cpu")
	nic := e.NewResource("nic")
	var prevCompute *Activity
	var lastSend *Activity
	for k := 0; k < n; k++ {
		c := e.NewActivity(cpu, 5, "compute")
		if prevCompute != nil {
			e.AddDep(prevCompute, c)
			s := e.NewActivity(nic, 3, "send")
			e.AddDep(prevCompute, s)
			lastSend = s
		}
		prevCompute = c
	}
	// Final send of the last compute.
	s := e.NewActivity(nic, 3, "send")
	e.AddDep(prevCompute, s)
	lastSend = s
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n*5 + 3)
	if r.Makespan != want {
		t.Errorf("makespan = %g, want %g (pipelined)", r.Makespan, want)
	}
	if lastSend.End != want {
		t.Errorf("last send ends at %g", lastSend.End)
	}
}
