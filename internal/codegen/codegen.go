package codegen

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/tiling"
)

// SequentialTiled renders the sequentially-executed tiled loop nest for a
// rectangular tiling of sp: n tile loops around n intra-tile loops with
// clipping against the original bounds, the standard strip-mine-and-
// interchange form of the supernode transformation.
func SequentialTiled(sp *space.Space, t *tiling.Tiling, body string) (string, error) {
	sides := t.Sides()
	if sp.Dim() != t.Dim() {
		return "", fmt.Errorf("codegen: dimension mismatch")
	}
	ts, err := t.TileSpace(sp)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	indent := 0
	emit := func(format string, args ...any) {
		b.WriteString(strings.Repeat("\t", indent))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	for d := 0; d < sp.Dim(); d++ {
		emit("for t%d := int64(%d); t%d <= %d; t%d++ {", d, ts.Lower[d], d, ts.Upper[d], d)
		indent++
	}
	for d := 0; d < sp.Dim(); d++ {
		emit("for i%d := max(int64(%d), t%d*%d); i%d <= min(int64(%d), t%d*%d+%d); i%d++ {",
			d, sp.Lower[d], d, sides[d], d, sp.Upper[d], d, sides[d], sides[d]-1, d)
		indent++
	}
	emit("%s", body)
	for indent > 0 {
		indent--
		emit("}")
	}
	return b.String(), nil
}

// ProcB renders the paper's blocking per-processor pseudocode for the 3-D
// experiment: the receive→compute→send triplet per k tile (Section 5).
func ProcB(kTiles int64) string {
	var b strings.Builder
	b.WriteString("// ProcB(i, j): blocking schedule of processor (i, j)\n")
	fmt.Fprintf(&b, "for k := 0; k < %d; k++ {\n", kTiles)
	b.WriteString("\tMPI_Recv(T(i-1, j), results(T(i-1, j), k))\n")
	b.WriteString("\tMPI_Recv(T(i, j-1), results(T(i, j-1), k))\n")
	b.WriteString("\tcompute(k)\n")
	b.WriteString("\tMPI_Send(T(i+1, j), results(T(i, j), k))\n")
	b.WriteString("\tMPI_Send(T(i, j+1), results(T(i, j), k))\n")
	b.WriteString("}\n")
	return b.String()
}

// ProcNB renders the paper's non-blocking (overlapped) per-processor
// pseudocode: sends of tile k−1, receives for tile k+1, compute of tile k.
func ProcNB(kTiles int64) string {
	var b strings.Builder
	b.WriteString("// ProcNB(i, j): overlapped schedule of processor (i, j)\n")
	fmt.Fprintf(&b, "for k := 0; k < %d; k++ {\n", kTiles)
	b.WriteString("\tMPI_Isend(T(i+1, j), results(T(i, j), k-1), &s1)\n")
	b.WriteString("\tMPI_Isend(T(i, j+1), results(T(i, j), k-1), &s2)\n")
	b.WriteString("\tMPI_Irecv(T(i-1, j), results(T(i-1, j), k+1), &r1)\n")
	b.WriteString("\tMPI_Irecv(T(i, j-1), results(T(i, j-1), k+1), &r2)\n")
	b.WriteString("\tcompute(k)\n")
	b.WriteString("\tMPI_Wait(s1); MPI_Wait(s2); MPI_Wait(r1); MPI_Wait(r2)\n")
	b.WriteString("}\n")
	return b.String()
}

// TiledOrder invokes visit with every point of sp in the execution order of
// the sequentially-tiled nest: tiles of TileSpace in lexicographic
// tile-coordinate order, points within a tile in lexicographic order. The
// yielded vector is reused; clone to retain.
func TiledOrder(sp *space.Space, t *tiling.Tiling, visit func(ilmath.Vec)) error {
	ts, err := t.TileSpace(sp)
	if err != nil {
		return err
	}
	ts.Points(func(tc ilmath.Vec) bool {
		err = visitTile(sp, t, tc, visit)
		return err == nil
	})
	return err
}

// WavefrontOrder invokes visit with every point of sp in the order implied
// by a linear schedule of the tiled space: tiles grouped by time step
// (steps ascending, tiles within a step in lexicographic order), points
// within a tile in lexicographic order. This is the parallel execution
// order whose legality the schedule guarantees.
func WavefrontOrder(sp *space.Space, t *tiling.Tiling, l *schedule.Linear, td *deps.Set, visit func(ilmath.Vec)) error {
	ts, err := t.TileSpace(sp)
	if err != nil {
		return err
	}
	byStep := map[int64][]ilmath.Vec{}
	var steps []int64
	ts.Points(func(tc ilmath.Vec) bool {
		var step int64
		if step, err = l.Time(tc, ts, td); err != nil {
			return false
		}
		if byStep[step] == nil {
			steps = append(steps, step)
		}
		byStep[step] = append(byStep[step], tc.Clone())
		return true
	})
	if err != nil {
		return err
	}
	slices.Sort(steps)
	for _, s := range steps {
		for _, tc := range byStep[s] {
			if err := visitTile(sp, t, tc, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// visitTile invokes visit with the points of tile tc's TileIterations box
// in lexicographic order. Every tile of TileSpace holds at least one point.
func visitTile(sp *space.Space, t *tiling.Tiling, tc ilmath.Vec, visit func(ilmath.Vec)) error {
	sub, err := t.TileIterations(sp, tc)
	if err != nil {
		return err
	}
	sub.Points(func(j ilmath.Vec) bool {
		visit(j)
		return true
	})
	return nil
}

// CheckOrder verifies that an execution order (produced via TiledOrder or
// WavefrontOrder) is a legal reordering of the original loop nest: every
// point appears exactly once, and every dependence predecessor j − d inside
// the space is visited before j. It returns nil if legal.
func CheckOrder(sp *space.Space, d *deps.Set, order func(visit func(ilmath.Vec)) error) error {
	pos := make(map[string]int64, sp.Volume())
	var idx int64
	var firstErr error
	err := order(func(j ilmath.Vec) {
		if firstErr != nil {
			return
		}
		k := j.String()
		if _, dup := pos[k]; dup {
			firstErr = fmt.Errorf("codegen: point %v visited twice", j)
			return
		}
		if !sp.Contains(j) {
			firstErr = fmt.Errorf("codegen: point %v outside the space", j)
			return
		}
		pos[k] = idx
		idx++
	})
	if err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	if idx != sp.Volume() {
		return fmt.Errorf("codegen: order visited %d of %d points", idx, sp.Volume())
	}
	var depErr error
	sp.Points(func(j ilmath.Vec) bool {
		pj := pos[j.String()]
		for i := 0; i < d.Len(); i++ {
			prev := j.Sub(d.At(i))
			if !sp.Contains(prev) {
				continue
			}
			if pos[prev.String()] >= pj {
				depErr = fmt.Errorf("codegen: dependence violated: %v executed at %d, consumer %v at %d",
					prev, pos[prev.String()], j, pj)
				return false
			}
		}
		return true
	})
	return depErr
}
