package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/sim"
)

// sequentialArgmin is the unpruned oracle of an optimum query: the
// runSequential rows over every OptimumHeights rung, earliest minimum of
// the mode's column.
func sequentialArgmin(rows []SweepRow, mode sim.Mode) (int64, float64) {
	best, bestT := int64(-1), 0.0
	for _, r := range rows {
		t := r.OverlapSim
		if mode == sim.Blocking {
			t = r.BlockingSim
		}
		if best < 0 || t < bestT {
			best, bestT = r.V, t
		}
	}
	return best, bestT
}

// TestTieredOptimumMatchesExactOnFigures is the acceptance gate of the
// tiered-search rework: on the paper's Fig. 9-11 spaces (which also feed
// Fig. 12) and for both schedules, the tiered OptimumDetailCtx and the
// bound-pruned OptimumExactCtx must both return the bit-identical (V, t) of the unpruned
// sequential argmin over OptimumHeights, while the tiered search issues at
// least 4x fewer DES evaluations per query than the ladder has rungs and
// at least 5x fewer in aggregate — measured with the sim.Cache counters.
func TestTieredOptimumMatchesExactOnFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure spaces")
	}
	if raceDetectorEnabled {
		t.Skip("full-scale DES is prohibitively slow under the race detector; the randomized property test covers the tiered path there")
	}
	type counts struct{ tiered, exact, rungs uint64 }
	var mu sync.Mutex // subtests run in parallel
	results := make(map[string]counts)
	var queries []string
	for _, fig := range []Sweep{Fig9(), Fig10(), Fig11()} {
		fig := fig
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			name := fmt.Sprintf("%s/%s", fig.ID, mode)
			queries = append(queries, name)
			results[name] = counts{}
		}
		t.Run(fig.ID, func(t *testing.T) {
			t.Parallel()
			ref := fig
			ref.Heights = fig.OptimumHeights()
			rows, err := runSequential(ref)
			if err != nil {
				t.Fatal(err)
			}
			rungs := uint64(len(ref.Heights))
			for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
				t.Run(mode.String(), func(t *testing.T) {
					wantV, wantT := sequentialArgmin(rows, mode)
					s := fig
					s.Cache = sim.NewCache()
					out, err := s.OptimumDetailCtx(context.Background(), mode)
					if err != nil {
						t.Fatal(err)
					}
					tiered := s.Cache.Stats().Evals
					if out.Tier != estimate.TierCertified {
						t.Errorf("paper grid not certified: %+v", out)
					}

					s.Cache = sim.NewCache()
					vEx, tEx, err := s.OptimumExactCtx(context.Background(), mode)
					if err != nil {
						t.Fatal(err)
					}
					exact := s.Cache.Stats().Evals

					if out.V != wantV || out.T != wantT {
						t.Errorf("tiered (V=%d t=%v) != sequential argmin (V=%d t=%v)", out.V, out.T, wantV, wantT)
					}
					if vEx != wantV || tEx != wantT {
						t.Errorf("exact (V=%d t=%v) != sequential argmin (V=%d t=%v)", vEx, tEx, wantV, wantT)
					}
					if tiered*4 > rungs {
						t.Errorf("per-query savings too small: %d tiered evals vs %d rungs", tiered, rungs)
					}
					mu.Lock()
					results[fmt.Sprintf("%s/%s", fig.ID, mode)] = counts{tiered, exact, rungs}
					mu.Unlock()
				})
			}
		})
	}
	// Runs after every parallel subtest above has finished.
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		var sum counts
		for _, name := range queries {
			c := results[name]
			if c.rungs == 0 {
				return // a subtest failed before recording; it already reported
			}
			sum.tiered += c.tiered
			sum.exact += c.exact
			sum.rungs += c.rungs
		}
		if sum.tiered*5 > sum.rungs {
			t.Errorf("aggregate savings below 5x: %d tiered DES evaluations vs %d rungs", sum.tiered, sum.rungs)
		}
		t.Logf("DES evaluations across %d queries: tiered %d, bound-pruned exact %d, rungs %d (%.1fx tiered)",
			len(queries), sum.tiered, sum.exact, sum.rungs, float64(sum.rungs)/float64(sum.tiered))
	})
}

// TestGridLowerBoundTightOnFigures pins how close sim.GridLowerBound comes
// to the simulated makespan on the paper's Fig. 9-11 geometries, at every
// ladder rung from 4 to K/4: at least 0.85 of it under ProcB and 0.65
// under ProcNB. The fill–program–drain path term is what reaches these
// ratios; max(chain, busy) alone falls to about 0.44 and 0.41 at large V,
// where the branch-and-bound exact tier and the walk's bound elision would
// lose most of their pruning.
func TestGridLowerBoundTightOnFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure spaces")
	}
	if raceDetectorEnabled {
		t.Skip("full-scale DES is prohibitively slow under the race detector")
	}
	floor := map[sim.Mode]float64{sim.Blocking: 0.85, sim.Overlapped: 0.65}
	tightest := map[sim.Mode]float64{sim.Blocking: 1, sim.Overlapped: 1}
	for _, fig := range []Sweep{Fig9(), Fig10(), Fig11()} {
		rs, err := evalGrid(context.Background(), nil, fig.ID, fig.Machine, fig.points())
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range fig.Heights {
			for k, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
				lb := sim.GridLowerBound(fig.Grid, v, fig.Machine, mode, fig.ModeCap(mode), sim.GridOpts{})
				ms := rs[2*i+k].Makespan
				r := lb / ms
				if !(r >= floor[mode]) || r > 1 {
					t.Errorf("%s V=%d %s: bound/makespan %.3f (bound %g, makespan %g), want in [%.2f, 1]",
						fig.ID, v, mode, r, lb, ms, floor[mode])
				}
				tightest[mode] = min(tightest[mode], r)
			}
		}
	}
	t.Logf("lowest bound/makespan: blocking %.3f, overlapped %.3f", tightest[sim.Blocking], tightest[sim.Overlapped])
}

// TestOptimumMatchesSequentialArgminRandomized is the seeded property
// test: across randomized Grid3D/Machine configurations and both modes,
// the tiered Optimum must return exactly the answer obtained by running
// the sequential reference sweep over the same candidate heights and
// taking the earliest argmin. On configurations far from the calibrated
// regime the certification tolerances reject the fast path and the exact
// fallback answers — either way the identity must hold bit-for-bit. Each
// trial also forces the bound-pruned exact tier (Sweep.Exact), which must
// match the same argmin across a machine population where either term of
// sim.GridLowerBound can dominate.
func TestOptimumMatchesSequentialArgminRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 10
	dims := []int64{8, 16, 32}
	for trial := 0; trial < trials; trial++ {
		g := model.Grid3D{
			I:  dims[rng.Intn(len(dims))],
			J:  dims[rng.Intn(len(dims))],
			K:  256 << rng.Intn(3),
			PI: 4, PJ: 4,
		}
		m := model.PentiumCluster()
		scale := func(x float64) float64 { return x * math.Exp(2.2*rng.Float64()-1.1) }
		m.Tc = scale(m.Tc)
		m.Ts = scale(m.Ts)
		m.Tt = scale(m.Tt)
		m.FillMPIBase = scale(m.FillMPIBase)
		m.FillMPIPerByte = scale(m.FillMPIPerByte)
		m.FillKernelBase = scale(m.FillKernelBase)
		m.FillKernelPerByte = scale(m.FillKernelPerByte)
		s := Sweep{
			ID: fmt.Sprintf("prop%d", trial), Title: "property",
			Grid: g, Heights: Ladder(4, g.K/4),
			Machine: m, Cap: sim.CapDMA,
			Cache: sim.NewCache(),
		}
		ref := s
		ref.Heights = s.OptimumHeights()
		ref.Cache = nil
		rows, err := runSequential(ref)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			wantV, wantT := sequentialArgmin(rows, mode)
			for _, exact := range []bool{false, true} {
				s.Exact = exact
				out, err := s.OptimumDetailCtx(context.Background(), mode)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, mode, err)
				}
				if out.V != wantV || out.T != wantT {
					t.Errorf("trial %d %s exact=%v (grid %+v): V=%d t=%v != reference V=%d t=%v (outcome %+v)",
						trial, mode, exact, g, out.V, out.T, wantV, wantT, out)
				}
			}
		}
	}
}

// TestLadderEdgeCases: clamping and degenerate ranges (the lo <= 0 input
// used to loop forever: 0*2 == 0).
func TestLadderEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int64
		want   []int64
	}{
		{"zero lo", 0, 8, []int64{1, 2, 4, 8}},
		{"negative lo", -5, 4, []int64{1, 2, 4}},
		{"lo == hi", 16, 16, []int64{16}},
		{"hi below lo", 16, 8, nil},
		{"hi zero", 1, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Ladder(tc.lo, tc.hi)
			if len(got) != len(tc.want) {
				t.Fatalf("Ladder(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("Ladder(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
				}
			}
		})
	}
}

// TestRefineEdgeCases: degenerate brackets and tiny counts stay inside
// [lo, hi], deduped and strictly increasing.
func TestRefineEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		center, lo, hi int64
		n              int
	}{
		{"lo == hi", 100, 64, 64, 7},
		{"n == 1", 100, 1, 1000, 1},
		{"n == 0", 100, 1, 1000, 0},
		{"center below lo", 2, 10, 1000, 9},
		{"center above hi", 5000, 1, 1000, 9},
		{"center zero", 0, 1, 1000, 5},
		{"lo zero", 10, 0, 1000, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Refine(tc.center, tc.lo, tc.hi, tc.n)
			if len(vs) == 0 {
				t.Fatalf("Refine(%d, %d, %d, %d) empty", tc.center, tc.lo, tc.hi, tc.n)
			}
			lo := tc.lo
			if lo < 1 {
				lo = 1
			}
			for i, v := range vs {
				if v < lo || v > tc.hi {
					t.Errorf("candidate %d outside [%d, %d]: %v", v, lo, tc.hi, vs)
				}
				if i > 0 && v <= vs[i-1] {
					t.Errorf("not strictly increasing: %v", vs)
				}
			}
		})
	}
	if vs := Refine(100, 64, 64, 7); len(vs) != 1 || vs[0] != 64 {
		t.Errorf("degenerate bracket: %v, want [64]", vs)
	}
	if vs := Refine(100, 64, 32, 7); vs != nil {
		t.Errorf("inverted bracket: %v, want nil", vs)
	}
}
