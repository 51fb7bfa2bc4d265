package schedule_test

import (
	"fmt"
	"log"

	"repro/internal/deps"
	"repro/internal/schedule"
	"repro/internal/space"
)

// Example compares the two schedule lengths of the paper's Examples 1 and
// 3 on the 1000×100 tiled space: Π = (1,1) needs 1099 steps, the
// overlapping Π = (1,2) needs 1198 — but each overlapped step hides its
// communication.
func Example() {
	tiled := space.MustRect(1000, 100)
	unit := deps.Unit(2)
	pNo, err := schedule.NonOverlapping(2).Length(tiled, unit)
	if err != nil {
		log.Fatal(err)
	}
	ov, err := schedule.Overlapping(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	pOv, err := ov.Length(tiled, unit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-overlapping %v: P = %d\n", schedule.NonOverlapping(2), pNo)
	fmt.Printf("overlapping     %v: P = %d\n", ov, pOv)
	// Output:
	// non-overlapping Π=(1, 1): P = 1099
	// overlapping     Π=(1, 2): P = 1198
}
