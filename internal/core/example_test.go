package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/model"
	"repro/internal/space"
)

// Example reproduces the paper's Example 1/3 numbers through the planning
// API: tile the 10000×1000 loop with the derived 10×10 squares and compare
// the two schedules analytically.
func Example() {
	problem, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := problem.Plan(model.Example1Machine(), core.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sides := plan.Tiling.Sides()
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
