package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/space"
)

// planOf plans the problem (sp, d) on m with the given tile sides and,
// when mapDim ≥ 0, that mapping dimension.
func planOf(t *testing.T, sp *space.Space, d *deps.Set, m model.Machine, sides ilmath.Vec, mapDim int) *Plan {
	t.Helper()
	p, err := NewProblem(sp, d)
	if err != nil {
		t.Fatal(err)
	}
	opts := PlanOptions{TileSides: sides}
	if mapDim >= 0 {
		opts.MapDim = &mapDim
	}
	plan, err := p.Plan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPlanStripsOverlapWins: the 2-D strip deployment on 10 strips, simulated
// through the plan, sends one message per tile and strip boundary and the
// overlapped schedule beats the blocking one.
func TestPlanStripsOverlapWins(t *testing.T) {
	plan := planOf(t, space.MustRect(1000, 100), deps.Example1Deps(), model.Example1Machine(), ilmath.V(10, 10), -1)
	simr, err := plan.Simulate(sim.CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	if simr.Overlap.Makespan >= simr.NonOverlap.Makespan {
		t.Errorf("overlap %g not faster than blocking %g", simr.Overlap.Makespan, simr.NonOverlap.Makespan)
	}
	// Messages: (P−1) strip boundaries × 100 tiles each.
	if simr.Overlap.NumMessages != 9*100 || simr.NonOverlap.NumMessages != 9*100 {
		t.Errorf("messages = %d and %d, want %d", simr.NonOverlap.NumMessages, simr.Overlap.NumMessages, 9*100)
	}
}

// TestPlanExample1FullScale simulates the paper's Example 1 plan: it is the
// deployment `tilebench ex1` simulates, so it gives the same makespans,
// and they stay in the ballpark of the analytic eq. 3/4 walk-through (the
// model assumes steady state and formula (2)'s 20 points per message; the
// simulation includes the 100-strip pipeline fill and ships s1+1 = 11).
func TestPlanExample1FullScale(t *testing.T) {
	plan := planOf(t, space.MustRect(10000, 1000), deps.Example1Deps(), model.Example1Machine(), ilmath.V(10, 10), -1)
	simr, err := plan.Simulate(sim.CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	bl, ov := simr.NonOverlap.Makespan, simr.Overlap.Makespan
	if math.Abs(bl-0.336470) > 5e-7 || math.Abs(ov-0.243275) > 5e-7 {
		t.Errorf("blocking %.6f s, overlapped %.6f s; tilebench ex1 prints 0.336470 and 0.243275", bl, ov)
	}
	if !almostEq(bl, 0.400036, 0.35) || !almostEq(ov, 0.273144, 0.35) {
		t.Errorf("simulated %g / %g vs model 0.400 / 0.273 diverge", bl, ov)
	}
	if imp := 1 - ov/bl; imp < 0.15 || imp > 0.55 {
		t.Errorf("improvement %.0f%% outside plausible band", imp*100)
	}
}

// TestPlanFaceOrderIsTheRunners pins the receive order on the
// tilebench ablation-map geometry: a tile receives its faces with the lower
// crossing dimension first, as the 3-D runner receives west before north,
// whatever order the problem lists its dependences in. There the blocking
// schedule of the opposite order is 26 % slower under map dims 0 and 1.
func TestPlanFaceOrderIsTheRunners(t *testing.T) {
	sp, sides := space.MustRect(8, 8, 256), ilmath.V(4, 4, 16)
	reversed := deps.MustNewSet(ilmath.V(0, 0, 1), ilmath.V(0, 1, 0), ilmath.V(1, 0, 0))
	for mapDim, want := range []float64{0.019304, 0.019304, 0.019163} {
		var got [2]float64
		for i, d := range []*deps.Set{deps.Unit(3), reversed} {
			r, err := planOf(t, sp, d, model.PentiumCluster(), sides, mapDim).SimulateOne(sim.Blocking, sim.CapNone, false)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = r.Makespan
		}
		if got[0] != got[1] || math.Abs(got[0]-want) > 5e-7 {
			t.Errorf("map dim %d: blocking makespans %.6f s and %.6f s under the two dependence orders, want %.6f s each",
				mapDim, got[0], got[1], want)
		}
	}
}

// TestPlanClippedFacesMatchPoints simulates a 3-D plan whose tiles are
// clipped in both non-mapping dimensions and holds each rank's messages
// and bytes to a brute-force count over the points: a point ships once
// to each other processor that reads it. A clipped tile's faces are
// smaller than an interior tile's.
func TestPlanClippedFacesMatchPoints(t *testing.T) {
	sp, d := space.MustRect(10, 10, 64), deps.Stencil3D()
	sides := ilmath.V(4, 4, 8) // 3×3×8 tiles, the last along i and j 2 wide
	m := model.Machine{Tc: 1e-9, BytesPerElem: 8, FillMPIPerByte: 1}
	plan := planOf(t, sp, d, m, sides, -1)
	if plan.Mapping.MapDim != 2 {
		t.Fatalf("mapped along %d, want k", plan.Mapping.MapDim)
	}
	rankOf := func(j ilmath.Vec) int { return int(j[0]/sides[0]*3 + j[1]/sides[1]) }

	type key struct{ from, to int }
	wantBytes, wantMsgs := map[key]int64{}, map[key]map[int64]bool{}
	sp.Points(func(j ilmath.Vec) bool {
		shipped := map[int]bool{}
		for _, dv := range d.Vectors() {
			q := j.Clone()
			for i := range dv {
				q[i] += dv[i]
			}
			if !sp.Contains(q) || rankOf(q) == rankOf(j) || shipped[rankOf(q)] {
				continue
			}
			shipped[rankOf(q)] = true
			k := key{rankOf(j), rankOf(q)}
			wantBytes[k] += m.BytesPerElem
			if wantMsgs[k] == nil {
				wantMsgs[k] = map[int64]bool{}
			}
			wantMsgs[k][j[2]/sides[2]] = true // one message per k tile
		}
		return true
	})

	r, err := plan.SimulateOne(sim.Overlapped, sim.CapDMA, true)
	if err != nil {
		t.Fatal(err)
	}
	// The trace names the sender and receiver tiles; their first two
	// coordinates are the processor's.
	gotBytes, gotMsgs := map[key]int64{}, map[key]int64{}
	for _, e := range r.Trace {
		if !strings.HasPrefix(e.Label, "isend") {
			continue
		}
		from, to, ok := strings.Cut(strings.TrimPrefix(e.Label, "isend"), "->")
		if !ok {
			t.Fatalf("isend label %q", e.Label)
		}
		k := key{tileRank(t, from), tileRank(t, to)}
		gotBytes[k] += int64(math.Round(e.End - e.Start))
		gotMsgs[k]++
	}
	if len(gotBytes) != len(wantBytes) {
		t.Errorf("simulated traffic between %d processor pairs, the points between %d", len(gotBytes), len(wantBytes))
	}
	for k, want := range wantBytes {
		if gotBytes[k] != want || gotMsgs[k] != int64(len(wantMsgs[k])) {
			t.Errorf("ranks %d→%d: simulated %d bytes in %d messages, the points %d bytes in %d",
				k.from, k.to, gotBytes[k], gotMsgs[k], want, len(wantMsgs[k]))
		}
	}
}

// tileRank parses a trace tile "(i, j, k)" of the 3×3×8 tile space into
// its processor's rank, 3i+j.
func tileRank(t *testing.T, s string) int {
	t.Helper()
	f := strings.Split(strings.Trim(s, "()"), ", ")
	i, err1 := strconv.Atoi(f[0])
	j, err2 := strconv.Atoi(f[1])
	if len(f) != 3 || err1 != nil || err2 != nil {
		t.Fatalf("trace tile %q", s)
	}
	return 3*i + j
}
