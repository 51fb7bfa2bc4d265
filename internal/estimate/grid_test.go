package estimate

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// pairGrid is a small grid whose probes take milliseconds.
var pairGrid = model.Grid3D{I: 8, J: 8, K: 1024, PI: 4, PJ: 4}

// waitGoroutines polls until the goroutine count is back to base: a
// finished goroutine may take a moment to be reaped after signalling.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d: the bracket partner leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForGridPairErrorWaitsForPartner: a lower bracket rung that fails
// returns its error only after the upper rung's goroutine has finished its
// evaluation, and the upper rung's result is still handed back by the next
// probe of that rung, without a second cache lookup.
func TestForGridPairErrorWaitsForPartner(t *testing.T) {
	m := model.PentiumCluster()
	c := sim.NewCache()
	// Whatever the seed, a two-rung ladder brackets both rungs; the lower
	// one (V = −1) fails validation before reaching the engine.
	heights := []int64{-1, 64}
	base := runtime.NumGoroutine()
	cfg := ForGrid(context.Background(), pairGrid, m, sim.Overlapped, sim.CapDMA, c, heights)
	if !(cfg.SeedV > 0) {
		t.Fatalf("grid has no analytic seed (%v); the bracket would not pair", cfg.SeedV)
	}
	if _, err := cfg.Probe(-1); err == nil {
		t.Fatal("invalid lower rung probed without error")
	}
	if st := c.Stats(); st.Evals != 1 || st.Misses != 2 {
		t.Errorf("after the failed pair: %+v, want the partner's evaluation done (1 eval, 2 misses)", st)
	}
	waitGoroutines(t, base)
	got, err := cfg.Probe(64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.SimulateGrid(pairGrid, 64, m, sim.Overlapped, sim.CapDMA, sim.GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Makespan {
		t.Errorf("kept upper rung = %v, want %v", got, want.Makespan)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("the kept upper rung cost a second lookup: %+v", st)
	}
	// The pair is spent: probing the lower rung again is a plain lookup.
	if _, err := cfg.Probe(-1); err == nil {
		t.Fatal("invalid lower rung probed without error")
	}
	if st := c.Stats(); st.Misses != 3 || st.Evals != 1 {
		t.Errorf("second lower-rung probe: %+v, want one more miss and no evaluation", st)
	}
	waitGoroutines(t, base)
}

// TestForGridPairPreCancelled: under an already-cancelled context the
// pair starts no evaluation, neither the rung asked for nor its partner,
// whether the probe is called directly or through Optimum.
func TestForGridPairPreCancelled(t *testing.T) {
	m := model.PentiumCluster()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	heights := []int64{16, 32, 64, 128, 256}
	base := runtime.NumGoroutine()

	c := sim.NewCache()
	cfg := ForGrid(ctx, pairGrid, m, sim.Overlapped, sim.CapDMA, c, heights)
	lo, _, ok := bracket(heights, cfg.SeedV)
	if !ok {
		t.Fatalf("no bracket for seed %v", cfg.SeedV)
	}
	if _, err := cfg.Probe(heights[lo]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Evals != 0 {
		t.Errorf("a cancelled pair ran %d evaluations", st.Evals)
	}

	c = sim.NewCache()
	if _, err := Optimum(ctx, ForGrid(ctx, pairGrid, m, sim.Overlapped, sim.CapDMA, c, heights)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimum err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Evals != 0 || st.Misses != 0 {
		t.Errorf("a cancelled Optimum touched the cache: %+v", st)
	}
	waitGoroutines(t, base)
}

// TestBothReraisesPartnerPanic: a panic on the partner goroutine surfaces
// on the caller once both halves are done, and nothing keeps running.
func TestBothReraisesPartnerPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	firstDone := false
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want the partner's panic", p)
			}
		}()
		both(func() { firstDone = true }, func() { panic("boom") })
		t.Error("both returned normally after its partner panicked")
	}()
	if !firstDone {
		t.Error("the caller's half did not run")
	}
	waitGoroutines(t, base)
}
