package codegen

import (
	"strings"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/schedule"
	"repro/internal/space"
	"repro/internal/tiling"
)

func TestSequentialTiledText(t *testing.T) {
	sp := space.MustRect(100, 40)
	tl := tiling.MustRectangular(10, 8)
	src, err := SequentialTiled(sp, tl, "A[i0][i1] = A[i0-1][i1] + A[i0][i1-1]")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"for t0 := int64(0); t0 <= 9; t0++",
		"for t1 := int64(0); t1 <= 4; t1++",
		"for i0 := max(int64(0), t0*10); i0 <= min(int64(99), t0*10+9); i0++",
		"for i1 := max(int64(0), t1*8); i1 <= min(int64(39), t1*8+7); i1++",
		"A[i0][i1]",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q:\n%s", want, src)
		}
	}
	// Balanced braces.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces")
	}
}

func TestSequentialTiledErrors(t *testing.T) {
	if _, err := SequentialTiled(space.MustRect(4), tiling.MustRectangular(2, 2), "x"); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestProcPseudocode(t *testing.T) {
	b := ProcB(32)
	for _, want := range []string{"MPI_Recv", "compute(k)", "MPI_Send", "k < 32"} {
		if !strings.Contains(b, want) {
			t.Errorf("ProcB missing %q", want)
		}
	}
	// Blocking order: recv before compute before send.
	if !(strings.Index(b, "MPI_Recv") < strings.Index(b, "compute") &&
		strings.Index(b, "compute") < strings.Index(b, "MPI_Send")) {
		t.Error("ProcB phases out of order")
	}
	nb := ProcNB(32)
	for _, want := range []string{"MPI_Isend", "MPI_Irecv", "compute(k)", "MPI_Wait", "k-1", "k+1"} {
		if !strings.Contains(nb, want) {
			t.Errorf("ProcNB missing %q", want)
		}
	}
	// Overlapped order: isend and irecv both before compute (paper's ProcNB).
	if !(strings.Index(nb, "MPI_Isend") < strings.Index(nb, "compute") &&
		strings.Index(nb, "MPI_Irecv") < strings.Index(nb, "compute")) {
		t.Error("ProcNB phases out of order")
	}
}

func TestTiledOrderLegalRectangular(t *testing.T) {
	d := deps.Example1Deps()
	for _, sp := range []*space.Space{
		space.MustRect(20, 12),
		// Negative lower bounds and sides that divide no extent: clipped
		// tiles on every face.
		space.MustNew(ilmath.V(-5, -3), ilmath.V(13, 7)),
	} {
		tl := tiling.MustRectangular(4, 3)
		err := CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
			return TiledOrder(sp, tl, func(j ilmath.Vec) { visit(j.Clone()) })
		})
		if err != nil {
			t.Errorf("tiled order over %v illegal: %v", sp, err)
		}
	}
}

func TestTiledOrderIllegalTilingDetected(t *testing.T) {
	// Rectangular tiles over wavefront deps are an ILLEGAL tiling; the
	// order checker must catch the violation.
	d := deps.MustNewSet(ilmath.V(1, -1), ilmath.V(1, 0), ilmath.V(1, 1))
	sp := space.MustRect(12, 10)
	tl := tiling.MustRectangular(3, 3)
	if tl.Legal(d) {
		t.Fatal("precondition: tiling should be illegal")
	}
	err := CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
		return TiledOrder(sp, tl, func(j ilmath.Vec) { visit(j.Clone()) })
	})
	if err == nil {
		t.Error("illegal tiling's order passed the checker")
	}
}

func TestWavefrontOrderLegalBothSchedules(t *testing.T) {
	sp := space.MustRect(24, 16)
	tl := tiling.MustRectangular(4, 4)
	d := deps.Example1Deps()
	td, err := tl.TileDeps(d)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*schedule.Linear{
		"non-overlap": schedule.NonOverlapping(2),
		"overlap":     mustOverlap(t, 2, 0),
	} {
		err := CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
			return WavefrontOrder(sp, tl, l, td, func(j ilmath.Vec) { visit(j.Clone()) })
		})
		if err != nil {
			t.Errorf("%s wavefront order illegal: %v", name, err)
		}
	}
}

func mustOverlap(t *testing.T, n, mapDim int) *schedule.Linear {
	t.Helper()
	l, err := schedule.Overlapping(n, mapDim)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestCheckOrderRejectsDuplicates(t *testing.T) {
	sp := space.MustRect(2, 2)
	err := CheckOrder(sp, deps.Unit(2), func(visit func(ilmath.Vec)) error {
		visit(ilmath.V(0, 0))
		visit(ilmath.V(0, 0))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate not caught: %v", err)
	}
}

func TestCheckOrderRejectsIncomplete(t *testing.T) {
	sp := space.MustRect(2, 2)
	err := CheckOrder(sp, deps.Unit(2), func(visit func(ilmath.Vec)) error {
		visit(ilmath.V(0, 0))
		return nil
	})
	if err == nil {
		t.Error("incomplete order not caught")
	}
}

func TestCheckOrderRejectsOutside(t *testing.T) {
	sp := space.MustRect(2, 2)
	err := CheckOrder(sp, deps.Unit(2), func(visit func(ilmath.Vec)) error {
		visit(ilmath.V(5, 5))
		return nil
	})
	if err == nil {
		t.Error("outside point not caught")
	}
}

func TestCheckOrderSequentialIsLegal(t *testing.T) {
	// The original lexicographic order is trivially legal for any
	// lex-positive dependence set.
	sp := space.MustRect(6, 6)
	for _, d := range []*deps.Set{
		deps.Example1Deps(),
		deps.MustNewSet(ilmath.V(1, -1), ilmath.V(0, 1)),
	} {
		err := CheckOrder(sp, d, func(visit func(ilmath.Vec)) error {
			sp.Points(func(j ilmath.Vec) bool {
				visit(j.Clone())
				return true
			})
			return nil
		})
		if err != nil {
			t.Errorf("sequential order illegal for %v: %v", d, err)
		}
	}
}
