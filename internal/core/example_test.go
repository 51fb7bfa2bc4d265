package core_test

import (
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/tiling"
)

// Example reproduces the paper's Example 1/3 numbers through the planning
// API: tile the 10000×1000 loop with the derived 10×10 squares and compare
// the two schedules analytically.
func Example() {
	problem, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := problem.Plan(model.Example1Machine(), core.PlanOptions{Neighbors: 1})
	if err != nil {
		log.Fatal(err)
	}
	sides, _ := plan.Tiling.RectSides()
	pred, err := plan.Predict()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tile sides %v, g = %d\n", sides, plan.Tiling.VolumeInt())
	fmt.Printf("non-overlapping: P = %d, T = %.6f s\n", pred.PNonOverlap, pred.NonOverlap)
	fmt.Printf("overlapping:     P = %d, T = %.6f s\n", pred.POverlap, pred.Overlap)
	// Output:
	// tile sides (10, 10), g = 100
	// non-overlapping: P = 1099, T = 0.400036 s
	// overlapping:     P = 1198, T = 0.273144 s
}

// ExampleProblem_PlanSkewed tiles beyond the paper's rectangular setting:
// the SOR-style dependence set {(1,−1),(1,0),(1,1)} has a negative
// component, so axis-aligned tiles are illegal (HD ≥ 0 fails — executing
// such tiles atomically would deadlock). A unimodular skew S with S·D ≥ 0
// makes the nest fully permutable; tiling the skewed space with
// H = diag(1/s)·S is legal by construction (Section 2.3's general-H
// formalism). The example checks that the tiled execution order is a legal
// reordering of the original loop (and that the naive rectangular tiling is
// not), schedules the tiled space with an exhaustively found optimal linear
// schedule, and simulates both schedules through PlanSkewed.
func ExampleProblem_PlanSkewed() {
	d := deps.MustNewSet(ilmath.V(1, -1), ilmath.V(1, 0), ilmath.V(1, 1))
	sp := space.MustRect(48, 36)
	fmt.Printf("space %v, dependences %v\n", sp, d)
	tiledOrder := func(tl *tiling.Tiling) error {
		return codegen.CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
			return codegen.TiledOrder(sp, tl, func(j ilmath.Vec) { visit(j.Clone()) })
		})
	}

	rect := tiling.MustRectangular(6, 6)
	fmt.Printf("rectangular 6x6 legal? %v\n", rect.Legal(d))
	fmt.Printf("rectangular tiled order check: %v\n", tiledOrder(rect))

	s, err := tiling.SkewingFor(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unimodular skew S:\n%v\nS·D:\n%v\n", s, s.Mul(d.Matrix()))
	tl, err := tiling.SkewedRectangular(d, 6, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skewed tiling H = diag(1/6,1/6)·S:\n%v\nlegal? %v, contains deps? %v, g = %d\n",
		tl.H(), tl.Legal(d), tl.ContainsDeps(d), tl.VolumeInt())
	fmt.Printf("skewed tiled order check: %v\n", tiledOrder(tl))

	tiles, err := tl.NonEmptyTiles(sp)
	if err != nil {
		log.Fatal(err)
	}
	td, err := tl.TileDeps(d)
	if err != nil {
		log.Fatal(err)
	}
	box, err := tl.TileSpaceBounds(sp)
	if err != nil {
		log.Fatal(err)
	}
	vols, err := tl.TileDepVolumes(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiled space: %d non-empty tiles in bounding box %v\n", len(tiles), box)
	fmt.Printf("tiled dependences D^S: %v\n", td)
	for _, v := range vols {
		fmt.Printf("  transfer toward %v: %d points/tile\n", v.Dir, v.Points)
	}

	lin, length, err := schedule.OptimalLinear(box, td, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal tile schedule: %v, %d time steps\n", lin, length)
	err = codegen.CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
		return codegen.WavefrontOrder(sp, tl, lin, td, func(j ilmath.Vec) { visit(j.Clone()) })
	})
	fmt.Printf("wavefront order check: %v\n", err)

	problem, err := core.NewProblem(sp, d)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := problem.PlanSkewed(ilmath.V(6, 6))
	if err != nil {
		log.Fatal(err)
	}
	simr, err := plan.Simulate(model.Example1Machine(), sim.CapDMA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated: blocking %.6f s, overlapped %.6f s (improvement %.1f%%)\n",
		simr.NonOverlap.Makespan, simr.Overlap.Makespan, simr.Improvement*100)
	// Output:
	// space [0..47]x[0..35], dependences {(1, -1), (1, 0), (1, 1)}
	// rectangular 6x6 legal? false
	// rectangular tiled order check: codegen: dependence violated: (0, 6) executed at 36, consumer (1, 5) at 11
	// unimodular skew S:
	// [1 0]
	// [1 1]
	// S·D:
	// [1 1 1]
	// [0 1 2]
	// skewed tiling H = diag(1/6,1/6)·S:
	// [1/6 0]
	// [1/6 1/6]
	// legal? true, contains deps? true, g = 36
	// skewed tiled order check: <nil>
	// tiled space: 56 non-empty tiles in bounding box [0..7]x[0..13]
	// tiled dependences D^S: {(0, 1), (1, 0), (1, 1)}
	//   transfer toward (0, 1): 10 points/tile
	//   transfer toward (1, 0): 6 points/tile
	//   transfer toward (1, 1): 2 points/tile
	// optimal tile schedule: Π=(1, 1), 21 time steps
	// wavefront order check: <nil>
	// simulated: blocking 0.007453 s, overlapped 0.005991 s (improvement 19.6%)
}
