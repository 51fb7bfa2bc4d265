// Autotune recommends a tile height for a given problem and machine — the
// practical workflow the paper's analysis enables. It goes in three stages:
//
//  1. closed form: V* = √(K·a/(C·b)) from the affine machine model (the
//     analytic expression for the eq.-5 optimum the paper's Conclusions
//     call for),
//  2. simulation refinement: a ladder + local search on the calibrated
//     discrete-event cluster around the analytic seed,
//  3. cross-check: the recommendation under each hardware capability, with
//     the predicted improvement over the blocking baseline.
//
// Run: go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	grid := model.Grid3D{I: 16, J: 16, K: 8192, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	fmt.Printf("problem: %dx%dx%d stencil on %dx%d processors, t_c = %.3g µs\n\n",
		grid.I, grid.J, grid.K, grid.PI, grid.PJ, m.Tc*1e6)

	// Stage 1: closed form.
	vA, tA, err := grid.OptimalVOverlapAnalytic(m)
	if err != nil {
		log.Fatal(err)
	}
	vB, tB, err := grid.OptimalVBlockingAnalytic(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed form : overlapped V* ≈ %.0f (T ≈ %.4f s), blocking V* ≈ %.0f (T ≈ %.4f s)\n",
		vA, tA, vB, tB)
	imp, err := grid.PredictedImprovementAtOptima(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("              analytic improvement at the optima: %.0f%%\n\n", imp*100)

	// Stage 2: simulation refinement around the analytic seed.
	s := experiments.Sweep{
		ID: "autotune", Title: "autotune",
		Grid:    grid,
		Heights: experiments.Refine(int64(vA), 4, grid.K/4, 13),
		Machine: m,
		Cap:     sim.CapDMA,
	}
	vOv, tOv, err := s.OptimumRefined(sim.Overlapped)
	if err != nil {
		log.Fatal(err)
	}
	vBl, tBl, err := s.OptimumRefined(sim.Blocking)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated   : overlapped V = %d (%.4f s), blocking V = %d (%.4f s), improvement %.0f%%\n\n",
		vOv, tOv, vBl, tBl, 100*(1-tOv/tBl))

	// Stage 3: recommendation per hardware capability.
	fmt.Println("capability sensitivity at the recommended V:")
	for _, cap := range []sim.Capability{sim.CapNone, sim.CapDMA, sim.CapFullDuplex} {
		r, err := sim.SimulateGrid(grid, vOv, m, sim.Overlapped, cap, sim.GridOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %.4f s (%.0f%% of blocking optimum)\n", cap, r.Makespan, 100*r.Makespan/tBl)
	}
	fmt.Printf("\nrecommendation: V = %d with DMA-capable NICs; expect ≈%.0f%% over blocking\n",
		vOv, 100*(1-tOv/tBl))
}
