// Command tileplan derives and prints a tiled execution plan for a loop
// nest: the tiling matrix, tiled space, processor mapping, both time
// schedules and the predicted completion times of eq. 3 vs eq. 4 — then
// optionally cross-checks the prediction on the discrete-event simulator.
//
// Usage:
//
//	tileplan -space 10000x1000 -deps "1,1;1,0;0,1" [-tile 10x10 | -g 100]
//	         [-machine example1|pentium] [-simulate] [-gantt]
//
// With -optimum (3-D rectangular spaces only) it instead answers the
// planning query directly: the simulated-optimal tile height for both
// schedules on a -procs processor grid, via the tiered search — analytic
// closed form, a few targeted simulator probes, certified or falling back
// to the exact tier, which simulates every rung that can win (-exact
// forces the latter):
//
//	tileplan -space 16x16x16384 -procs 4x4 -optimum [-exact]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/space"
	"repro/internal/trace"
)

var (
	spaceFlag   = flag.String("space", "10000x1000", "iteration space extents, e.g. 16x16x16384")
	depsFlag    = flag.String("deps", "1,1;1,0;0,1", "dependence vectors, e.g. \"1,0,0;0,1,0;0,0,1\"")
	tileFlag    = flag.String("tile", "", "explicit tile sides, e.g. 10x10 (default: derived)")
	gFlag       = flag.Int64("g", 0, "tile volume budget (default: Hodzic-Shang rule)")
	machineFlag = flag.String("machine", "example1", "machine model: example1 | pentium | path to a .json machine file")
	simulate    = flag.Bool("simulate", false, "also run both schedules on the simulator")
	gantt       = flag.Bool("gantt", false, "with -simulate: print Gantt charts (small plans only)")
	emit        = flag.Bool("emit", false, "print the tiled loop nest and the ProcB/ProcNB pseudocode")
	svgOut      = flag.String("svg", "", "with -simulate -gantt: also write SVG timelines to <path>-blocking.svg / <path>-overlapped.svg")
	chromeOut   = flag.String("chrome", "", "with -simulate -gantt: also write Perfetto/chrome trace JSON to <path>-<mode>.json")
	optimum     = flag.Bool("optimum", false, "answer the optimum-tile-height query for a 3-D space (tiered search)")
	procsFlag   = flag.String("procs", "4x4", "with -optimum: processor grid, e.g. 4x4")
	exactFlag   = flag.Bool("exact", false, "with -optimum: force the exact tier (skip the analytic fast path)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tileplan: %v\n", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int64, error) {
	parts := strings.Split(s, "x")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseDeps(s string) (*deps.Set, error) {
	var vecs []ilmath.Vec
	for _, part := range strings.Split(s, ";") {
		var v ilmath.Vec
		for _, c := range strings.Split(part, ",") {
			x, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad dependence component %q: %w", c, err)
			}
			v = append(v, x)
		}
		vecs = append(vecs, v)
	}
	return deps.NewSet(vecs...)
}

func run() error {
	sizes, err := parseSizes(*spaceFlag)
	if err != nil {
		return err
	}
	sp, err := space.Rect(sizes...)
	if err != nil {
		return err
	}
	d, err := parseDeps(*depsFlag)
	if err != nil {
		return err
	}
	var m model.Machine
	if strings.HasSuffix(*machineFlag, ".json") {
		if m, err = model.LoadMachine(*machineFlag); err != nil {
			return err
		}
	} else if m, err = model.NamedMachine(*machineFlag); err != nil {
		return err
	}
	if *optimum {
		return runOptimum(sizes, m)
	}
	p, err := core.NewProblem(sp, d)
	if err != nil {
		return err
	}
	opts := core.PlanOptions{TileVolume: *gFlag}
	if *tileFlag != "" {
		sides, err := parseSizes(*tileFlag)
		if err != nil {
			return err
		}
		opts.TileSides = sides
	}
	plan, err := p.Plan(m, opts)
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())
	fmt.Printf("tiling H:\n%v\n", plan.Tiling)
	fmt.Println("exact per-direction tile transfer volumes:")
	for _, v := range plan.DepVolumes {
		fmt.Printf("  %v : %d points\n", v.Dir, v.Points)
	}
	if *emit {
		src, err := codegen.SequentialTiled(sp, plan.Tiling, "body(i...)")
		if err != nil {
			return err
		}
		fmt.Printf("\nsequential tiled loop nest:\n%s", src)
		kt := plan.Mapping.TilesPerProc()
		fmt.Printf("\n%s\n%s", codegen.ProcB(kt), codegen.ProcNB(kt))
	}
	if !*simulate {
		return nil
	}
	simr, err := plan.Simulate(sim.CapDMA)
	if err != nil {
		return err
	}
	fmt.Printf("simulated       : non-overlap %.6g s, overlap %.6g s, improvement %.1f%%\n",
		simr.NonOverlap.Makespan, simr.Overlap.Makespan, simr.Improvement*100)
	fmt.Printf("cpu utilization : non-overlap %.0f%%, overlap %.0f%%\n",
		simr.NonOverlap.CPUUtilization*100, simr.Overlap.CPUUtilization*100)
	if *gantt {
		if plan.TileSpace.Volume() > 512 {
			return fmt.Errorf("plan too large for a readable Gantt (%d tiles); use a smaller space", plan.TileSpace.Volume())
		}
		for _, mode := range []struct {
			name string
			m    sim.Mode
			cap  sim.Capability
		}{
			{"blocking", sim.Blocking, sim.CapNone},
			{"overlapped", sim.Overlapped, sim.CapDMA},
		} {
			r, err := plan.SimulateOne(mode.m, mode.cap, true)
			if err != nil {
				return err
			}
			fmt.Printf("\n%s schedule (makespan %.6g s):\n", mode.name, r.Makespan)
			if err := trace.New(r.Result).Gantt(os.Stdout, 100); err != nil {
				return err
			}
			if n := len(r.CritPath); n > 0 {
				st := simnet.Stats(r.CritPath)
				fmt.Printf("critical path: %d steps, %.6g s of work, %d dependency hops, %d resource-contention hops\n",
					st.Steps, st.WorkTime, st.DependencyHops, st.ResourceHops)
			}
			if *svgOut != "" {
				path := fmt.Sprintf("%s-%s.svg", *svgOut, mode.name)
				if err := writeArtifact(path, func(f *os.File) error {
					return trace.New(r.Result).SVG(f, 1200)
				}); err != nil {
					return err
				}
				fmt.Printf("(svg written to %s)\n", path)
			}
			if *chromeOut != "" {
				path := fmt.Sprintf("%s-%s.json", *chromeOut, mode.name)
				if err := writeArtifact(path, func(f *os.File) error {
					return trace.New(r.Result).ChromeTrace(f)
				}); err != nil {
					return err
				}
				fmt.Printf("(chrome trace written to %s)\n", path)
			}
		}
	}
	return nil
}

// writeArtifact creates path, writes via fn, and closes with error checking.
func writeArtifact(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
