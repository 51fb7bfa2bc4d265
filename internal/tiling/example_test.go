package tiling_test

import (
	"fmt"
	"log"

	"repro/internal/deps"
	"repro/internal/tiling"
)

// Example computes the communication volumes of the paper's Example 1:
// 10×10 square tiles over D = {(1,1),(1,0),(0,1)} give V_comm = 40 by
// formula (1) and 20 by formula (2) with mapping along dimension 0.
func Example() {
	tl := tiling.MustRectangular(10, 10)
	d := deps.Example1Deps()
	v1, err := tl.CommVolume(d)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := tl.CommVolumeMapped(d, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("g = %d, formula(1) = %v, formula(2) = %v\n", tl.VolumeInt(), v1, v2)
	// Output:
	// g = 100, formula(1) = 40, formula(2) = 20
}

// ExampleOptimalRectSides shows the communication-minimal tile shape: for
// symmetric dependence weight (Example 1) the optimum is square.
func ExampleOptimalRectSides() {
	sides, err := tiling.OptimalRectSides(deps.Example1Deps(), 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sides)
	// Output:
	// (10, 10)
}
