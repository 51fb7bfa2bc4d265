// Command tilebench regenerates the paper's evaluation: the tile-height
// sweeps of Figs. 9-11, the Fig. 12 summary table, the worked Examples 1
// and 3, and the design-choice ablations.
//
// Usage:
//
//	tilebench [flags] verify|fig9|fig10|fig11|fig12|ex1|ex3|ablation-cap|ablation-map|ablation-net|ablation-straggler|fault-sweep|recovery-sweep|scale-sweep|trace|all
//
// -quick shrinks the iteration spaces ~16x so every experiment finishes in
// seconds; tilebench -h lists the other flags. An interrupt (SIGINT) stops
// the running experiment within one simulation and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
)

var (
	quick          = flag.Bool("quick", false, "shrink the spaces ~16x for fast runs")
	csvOut         = flag.String("csv", "", "for fig9/fig10/fig11, recovery-sweep and scale-sweep: also write the rows as CSV to this file")
	cpuProfile     = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile     = flag.String("memprofile", "", "write a heap profile to this file after the runs")
	faultSeed      = flag.Uint64("fault-seed", 1, "for fault-sweep: fault-injection seed")
	faultIntensity = flag.Float64("fault-intensity", 1.0, "for fault-sweep: maximum fault intensity (0..1)")
	faultDeadline  = flag.Bool("deadline", false, "for fault-sweep: add the retransmit-budget vs deadline cross-check table")
	metricsFlag    = flag.Bool("metrics", false, "for fig9/fig10/fig11: add overlap-efficiency columns (phase-accounting pass)")
	traceOut       = flag.String("o", "trace.json", "for trace: output path for the Chrome trace-event JSON")
	traceMode      = flag.String("trace-mode", "overlapped", "for trace: which schedule to export (blocking | overlapped)")
	traceV         = flag.Int64("trace-v", 0, "for trace: tile height (0 searches for the schedule's optimum)")
	exact          = flag.Bool("exact", false, "force optimum searches onto the exact tier (skip the analytic fast path)")
)

// subcommands is the command line's experiment list, as the package
// comment gives it.
const subcommands = "verify|fig9|fig10|fig11|fig12|ex1|ex3|ablation-cap|ablation-map|ablation-net|ablation-straggler|fault-sweep|recovery-sweep|scale-sweep|trace|all"

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tilebench [flags] %s\n", subcommands)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(runAll(flag.Args()))
}

// runAll runs every requested experiment inside the optional profiling
// window and returns the process exit code (deferred profile writers must
// run before os.Exit). An interrupt cancels the experiments' context.
func runAll(ids []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tilebench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tilebench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tilebench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tilebench: -memprofile: %v\n", err)
			}
		}()
	}
	for _, id := range ids {
		if err := run(ctx, id); err != nil {
			fmt.Fprintf(os.Stderr, "tilebench: %s: %v\n", id, err)
			return 1
		}
	}
	return 0
}

// shrink applies the global sweep flags: -quick reduces the space ~16x,
// -exact forces optimum searches onto the exact tier.
func shrink(s experiments.Sweep) experiments.Sweep {
	s.Exact = *exact
	if !*quick {
		return s
	}
	s.Grid.K /= 16
	s.Heights = experiments.Ladder(4, s.Grid.K/4)
	s.Title += " (quick: K/16)"
	return s
}

// writeCSV writes one experiment's rows to the -csv file, if one is set.
func writeCSV(write func(io.Writer) error) error {
	if *csvOut == "" {
		return nil
	}
	f, err := os.Create(*csvOut)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", *csvOut)
	return nil
}

func run(ctx context.Context, id string) error {
	switch id {
	case "fig9", "fig10", "fig11":
		var s experiments.Sweep
		switch id {
		case "fig9":
			s = experiments.Fig9()
		case "fig10":
			s = experiments.Fig10()
		case "fig11":
			s = experiments.Fig11()
		}
		s = shrink(s)
		s.Metrics = *metricsFlag
		// One memo across the sweep and both optimum searches: the optimum
		// ladder revisits every sweep height.
		s.Cache = sim.NewCache()
		rows, err := s.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Format(s, rows))
		if err := writeCSV(func(w io.Writer) error { return experiments.CSV(w, rows) }); err != nil {
			return err
		}
		preOpt := s.Cache.Stats()
		vOv, tOv, err := s.OptimumRefinedCtx(ctx, sim.Overlapped)
		if err != nil {
			return err
		}
		vBl, tBl, err := s.OptimumRefinedCtx(ctx, sim.Blocking)
		if err != nil {
			return err
		}
		fmt.Printf("optimum: overlap V=%d t=%.6fs | blocking V=%d t=%.6fs | improvement %.0f%%\n",
			vOv, tOv, vBl, tBl, 100*(1-tOv/tBl))
		postOpt := s.Cache.Stats()
		fmt.Printf("optimum search cost: %d DES evaluations beyond the sweep (%d cache hits)\n",
			postOpt.Evals-preOpt.Evals, postOpt.Hits-preOpt.Hits)
		if rep, err := experiments.CheckShape(rows); err == nil {
			verdict := "REPRODUCED"
			if !rep.OK() {
				verdict = "NOT REPRODUCED"
			}
			fmt.Printf("shape check: overlap-always-wins=%v U-shaped(ov/bl)=%v/%v -> %s\n",
				rep.OverlapAlwaysWins, rep.UShapedOverlap, rep.UShapedBlocking, verdict)
		}
		fmt.Println()
		return nil
	case "fig12":
		if *quick {
			fmt.Println("fig12 ignores -quick (the table is defined on the paper's spaces)")
		}
		sweeps := []experiments.Sweep{experiments.Fig9(), experiments.Fig10(), experiments.Fig11()}
		for i := range sweeps {
			sweeps[i].Exact = *exact
		}
		rows, err := experiments.Fig12For(ctx, sweeps)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig12(rows))
		fmt.Println()
		return nil
	case "ex1", "ex3":
		out, err := experiments.Examples(ctx)
		if err != nil {
			return err
		}
		fmt.Print(out)
		fmt.Println()
		return nil
	case "ablation-cap":
		a := experiments.CapabilityAblation{
			Grid:    model.Grid3D{I: 16, J: 16, K: 4096, PI: 4, PJ: 4},
			V:       256,
			Machine: model.PentiumCluster(),
		}
		if *quick {
			a.Grid.K = 512
			a.V = 32
		}
		r, err := a.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCapability(a, r))
		fmt.Println()
		return nil
	case "ablation-net":
		// Use the slow shared-medium era wire speed (10 Mbps, the paper's
		// Example 1 assumption) so bus contention is visible.
		slow := model.PentiumCluster()
		slow.Tt = 0.8e-6
		a := experiments.NetworkAblation{
			Grid:    model.Grid3D{I: 16, J: 16, K: 4096, PI: 4, PJ: 4},
			V:       256,
			Machine: slow,
		}
		if *quick {
			a.Grid.K = 512
			a.V = 32
		}
		r, err := a.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatNetwork(a, r))
		fmt.Println()
		return nil
	case "ablation-map":
		a := experiments.MappingAblation{
			SpaceSizes: []int64{16, 16, 2048},
			TileSides:  ilmath.V(4, 4, 64),
			Machine:    model.PentiumCluster(),
		}
		if *quick {
			a.SpaceSizes = []int64{8, 8, 256}
			a.TileSides = ilmath.V(4, 4, 16)
		}
		rows, err := a.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatMapping(a, rows))
		fmt.Println()
		return nil
	case "ablation-straggler":
		a := experiments.StragglerAblation{
			Grid:      model.Grid3D{I: 16, J: 16, K: 4096, PI: 4, PJ: 4},
			V:         256,
			Machine:   model.PentiumCluster(),
			Straggler: 5,
			Slowdowns: []float64{1.0, 0.9, 0.75, 0.5, 0.25},
		}
		if *quick {
			a.Grid.K = 512
			a.V = 32
		}
		rows, err := a.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatStraggler(a, rows))
		fmt.Println()
		return nil
	case "fault-sweep":
		// Degrade the Fig. 9 space at its overlapped-optimal tile height:
		// does the overlapped schedule keep its edge as the cluster sours?
		base := shrink(experiments.Fig9())
		base.Cache = sim.NewCache()
		vOpt, _, err := base.OptimumRefinedCtx(ctx, sim.Overlapped)
		if err != nil {
			return err
		}
		max := *faultIntensity
		if max < 0 || max > 1 {
			return fmt.Errorf("-fault-intensity %g out of range [0, 1]", max)
		}
		const steps = 6
		intensities := make([]float64, 0, steps+1)
		for i := 0; i <= steps; i++ {
			intensities = append(intensities, max*float64(i)/steps)
		}
		fs := experiments.FaultSweep{
			ID:          base.ID,
			Grid:        base.Grid,
			Machine:     base.Machine,
			Cap:         base.Cap,
			V:           vOpt,
			Seed:        *faultSeed,
			Intensities: intensities,
			Cache:       base.Cache,
		}
		rows, err := fs.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFaultSweep(fs, rows))
		if err := experiments.CheckDegradation(rows); err != nil {
			fmt.Println("degradation check: NOT GRACEFUL")
			return err
		}
		fmt.Println("degradation check: GRACEFUL")
		if *faultDeadline {
			fmt.Print(experiments.FormatFaultDeadline(fs, rows))
			if err := experiments.CheckDeadlineConsistency(rows); err != nil {
				fmt.Println("deadline cross-check: INCONSISTENT")
				return err
			}
			fmt.Println("deadline cross-check: CONSISTENT")
		}
		fmt.Println()
		return nil
	case "recovery-sweep":
		// Cross checkpoint interval with fault intensity on the Fig. 9
		// space at its overlapped optimum: the Young/Daly curve an operator
		// consults to pick -checkpoint-every for a supervised run.
		base := shrink(experiments.Fig9())
		base.Cache = sim.NewCache()
		vOpt, _, err := base.OptimumRefinedCtx(ctx, sim.Overlapped)
		if err != nil {
			return err
		}
		max := *faultIntensity
		if max <= 0 || max > 1 {
			return fmt.Errorf("-fault-intensity %g out of range (0, 1]", max)
		}
		rs := experiments.RecoverySweep{
			ID:          base.ID,
			Grid:        base.Grid,
			Machine:     base.Machine,
			Cap:         base.Cap,
			V:           vOpt,
			Seed:        *faultSeed,
			Intervals:   []int64{1, 2, 4, 8, 16},
			Intensities: []float64{0, max / 4, max / 2, max},
			Cache:       base.Cache,
		}
		rows, err := rs.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRecovery(rs, rows))
		if err := writeCSV(func(w io.Writer) error { return experiments.RecoveryCSV(w, rows) }); err != nil {
			return err
		}
		if err := experiments.CheckRecoveryTradeoff(rows); err != nil {
			fmt.Println("recovery tradeoff check: VIOLATED")
			return err
		}
		fmt.Println("recovery tradeoff check: Young/Daly shape holds")
		fmt.Println()
		return nil
	case "scale-sweep":
		s := experiments.DefaultScaleSweep()
		if *quick {
			s.Points = []experiments.ScalePoint{{PI: 8, PJ: 8}, {PI: 16, PJ: 16}, {PI: 32, PJ: 32}}
			s.Title += " (quick: 64-1024 ranks)"
		}
		s.Cache = sim.NewCache()
		rows, err := s.RunCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScale(s, rows))
		if err := writeCSV(func(w io.Writer) error { return experiments.ScaleCSV(w, rows) }); err != nil {
			return err
		}
		if err := experiments.CheckScale(rows); err != nil {
			fmt.Println("scale check: overlap does NOT hold its edge")
			return err
		}
		fmt.Println("scale check: overlap holds its edge at every rank count")
		fmt.Println()
		return nil
	case "trace":
		return runTrace(ctx)
	case "verify":
		return runVerify()
	case "all":
		for _, sub := range []string{"verify", "ex1", "fig9", "fig10", "fig11", "fig12", "ablation-cap", "ablation-map", "ablation-net", "ablation-straggler", "fault-sweep", "recovery-sweep"} {
			if err := run(ctx, sub); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
}
