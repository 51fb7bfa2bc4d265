package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/runner"
	"repro/internal/stencil"
)

// verifyDeadline bounds every blocking mp wait in the verify worlds: a
// schedule bug that deadlocks a rank fails the run within this bound
// instead of hanging CI forever (the blockingdeadline contract).
const verifyDeadline = 2 * time.Minute

// runVerify executes both loop shapes (the 3-D grid and the 2-D strip) on
// the real executor in both modes on the in-process fabric — including a
// pure-rendezvous pass — and checks every result bit-exact against a
// sequential run. This is the operational proof that the schedules the
// benchmarks time are *correct* schedules.
func runVerify() error {
	fmt.Println("verify: real execution vs sequential reference")

	cfg3 := runner.Config{
		Grid:   model.Grid3D{I: 16, J: 16, K: 512, PI: 4, PJ: 4},
		V:      32,
		Kernel: stencil.Sqrt3D{},
	}
	if *quick {
		cfg3.Grid.K = 128
		cfg3.V = 16
	}
	for _, mode := range []runner.Mode{runner.Blocking, runner.Overlapped} {
		for _, opts := range []struct {
			name string
			w    mp.WorldOptions
		}{
			{"eager", mp.WorldOptions{RendezvousThreshold: -1, Deadline: verifyDeadline}},
			{"rendezvous", mp.WorldOptions{RendezvousThreshold: 0, Deadline: verifyDeadline}},
		} {
			cfg3.Mode = mode
			diff, elapsed, err := verifyRun(cfg3, int(cfg3.Grid.PI*cfg3.Grid.PJ), opts.w, runner.Run, runner.Gather, runner.VerifySequential)
			if err != nil {
				return err
			}
			status := "OK"
			if diff != 0 {
				status = fmt.Sprintf("FAIL (max |Δ| = %g)", diff)
			}
			fmt.Printf("  3-D %-10s %-10s %dx%dx%d V=%d  %8v  %s\n",
				mode, opts.name, cfg3.Grid.I, cfg3.Grid.J, cfg3.Grid.K, cfg3.V,
				elapsed.Round(time.Millisecond), status)
			if diff != 0 {
				return fmt.Errorf("3-D %v/%s verification failed", mode, opts.name)
			}
		}
	}

	cfg2 := runner.Config2D{I1: 400, I2: 120, S1: 10, Kernel: stencil.Sum2D{}}
	if *quick {
		cfg2.I1 = 100
	}
	for _, mode := range []runner.Mode{runner.Blocking, runner.Overlapped} {
		cfg2.Mode = mode
		diff, elapsed, err := verifyRun(cfg2, 6, mp.WorldOptions{RendezvousThreshold: -1, Deadline: verifyDeadline},
			runner.Run2D, runner.Gather2D, runner.VerifySequential2D)
		if err != nil {
			return err
		}
		status := "OK"
		if diff != 0 {
			status = fmt.Sprintf("FAIL (max |Δ| = %g)", diff)
		}
		fmt.Printf("  2-D %-10s %-10s %dx%d S1=%d      %8v  %s\n",
			mode, "eager", cfg2.I1, cfg2.I2, cfg2.S1, elapsed.Round(time.Millisecond), status)
		if diff != 0 {
			return fmt.Errorf("2-D %v verification failed", mode)
		}
	}
	fmt.Println()
	return nil
}

// verifyRun executes cfg through one of the runner's front doors — Run,
// Gather and VerifySequential, or their 2-D namesakes — on an in-process
// world and returns the difference from the sequential reference and the
// slowest rank's elapsed time.
func verifyRun[C any](cfg C, ranks int, opts mp.WorldOptions,
	run func(mp.Comm, C) (*runner.Local, runner.Stats, error),
	gather func(mp.Comm, C, *runner.Local) (*stencil.Grid, error),
	check func(*stencil.Grid, C) (float64, error)) (float64, time.Duration, error) {
	var grid *stencil.Grid
	var elapsed time.Duration
	var mu sync.Mutex
	err := mp.LaunchOpts(ranks, opts, func(c mp.Comm) error {
		l, st, err := run(c, cfg)
		if err != nil {
			return err
		}
		g, err := gather(c, cfg, l)
		if err != nil {
			return err
		}
		mu.Lock()
		if st.Elapsed > elapsed {
			elapsed = st.Elapsed
		}
		if c.Rank() == 0 {
			grid = g
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	diff, err := check(grid, cfg)
	return diff, elapsed, err
}
