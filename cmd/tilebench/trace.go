package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTrace implements the `trace` subcommand: simulate the Fig. 9 space at
// one tile height with the full labeled trace on, export it as
// Chrome/Perfetto trace-event JSON (-o; load it in ui.perfetto.dev or
// chrome://tracing), and print the phase-accounting report of BOTH
// schedules at that height so the exported picture comes with its numbers.
// -trace-v picks the height; 0 searches for the exported schedule's
// simulated optimum first.
func runTrace(ctx context.Context) error {
	s := shrink(experiments.Fig9())
	s.Cache = sim.NewCache()
	var mode sim.Mode
	switch *traceMode {
	case "blocking":
		mode = sim.Blocking
	case "overlapped":
		mode = sim.Overlapped
	default:
		return fmt.Errorf("unknown -trace-mode %q", *traceMode)
	}
	v := *traceV
	if v == 0 {
		var err error
		if v, _, err = s.OptimumRefinedCtx(ctx, mode); err != nil {
			return err
		}
		fmt.Printf("trace: using %s-optimal tile height V=%d (override with -trace-v)\n", *traceMode, v)
	}

	// The exported schedule runs with both the labeled trace and the
	// metrics pass; the other schedule needs only the metrics.
	opts := sim.GridOpts{Trace: true, Metrics: true}
	res, err := sim.SimulateGrid(s.Grid, v, s.Machine, mode, s.ModeCap(mode), opts)
	if err != nil {
		return err
	}
	f, err := os.Create(*traceOut)
	if err != nil {
		return err
	}
	if err := trace.New(res.Result).ChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s schedule, %s V=%d: %d events over %.6fs written to %s\n",
		*traceMode, s.ID, v, len(res.Trace), res.Makespan, *traceOut)

	other := sim.Overlapped
	if mode == sim.Overlapped {
		other = sim.Blocking
	}
	resOther, err := sim.SimulateGrid(s.Grid, v, s.Machine, other, s.ModeCap(other), sim.GridOpts{Metrics: true})
	if err != nil {
		return err
	}
	for _, m := range []struct {
		mode sim.Mode
		res  sim.Result
	}{{mode, res}, {other, resOther}} {
		fmt.Printf("\n%s schedule at V=%d (makespan %.6fs):\n", m.mode, v, m.res.Makespan)
		if err := m.res.Obs.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("\noverlap efficiency: %s %.1f%% vs %s %.1f%%\n",
		mode, 100*res.Obs.OverlapEfficiency, other, 100*resOther.Obs.OverlapEfficiency)
	fmt.Println()
	return nil
}
