package estimate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// boundLadder is a fine ladder around vCurve(4096, 1)'s minimum at 64, so
// the incumbent's neighbors lie within the model elision's margin and only
// a bound can skip them.
var boundLadder = []int64{32, 40, 48, 56, 64, 72, 80, 96, 128}

// recordingProbe prices heights with f and records every height it is
// asked for.
func recordingProbe(f func(v int64) float64, probed *[]int64) func(v int64) (float64, error) {
	return func(v int64) (float64, error) {
		*probed = append(*probed, v)
		return f(v), nil
	}
}

// TestOptimumBoundElidesProvenWorse: a neighbor the bound proves worse
// than the incumbent, and which the model prices within DefaultTol of its
// bound, is never probed; the answer and tier are the no-bound search's,
// at fewer probes.
func TestOptimumBoundElidesProvenWorse(t *testing.T) {
	curve := vCurve(4096, 1)
	run := func(bound func(v int64) float64) (Outcome, []int64) {
		var probed []int64
		out, err := Optimum(context.Background(), Config{
			Heights: boundLadder, SeedV: 60, Model: curve,
			Probe: recordingProbe(curve, &probed), Bound: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, probed
	}
	// The model prices 72 within the elision margin of the incumbent 64, so
	// without a bound the walk probes it.
	plain, plainProbed := run(nil)
	bounded, boundedProbed := run(func(v int64) float64 { return 0.999 * curve(v) })
	for _, v := range boundedProbed {
		if v == 72 {
			t.Errorf("V=72 probed although its bound %g exceeds the incumbent %g: probes %v",
				0.999*curve(72), curve(64), boundedProbed)
		}
	}
	if !containsHeight(plainProbed, 72) {
		t.Fatalf("the no-bound walk never reached V=72 (probes %v): the case does not test the bound", plainProbed)
	}
	if bounded.V != plain.V || bounded.T != plain.T || bounded.Tier != plain.Tier {
		t.Errorf("bounded %+v != no-bound %+v", bounded, plain)
	}
	if bounded.Tier != TierCertified || bounded.V != 64 {
		t.Errorf("bounded search: %+v, want certified V=64", bounded)
	}
	if bounded.Probes >= plain.Probes {
		t.Errorf("bound saved no probe: %d with it, %d without", bounded.Probes, plain.Probes)
	}
}

// TestOptimumBoundProbesMispricedNeighbor: a neighbor the bound proves
// worse, but which the model misprices by more than DefaultTol at its
// bound, is probed as without a bound, so its misprice still fails
// certification: the Outcome, fallback reason included, is the no-bound
// search's.
func TestOptimumBoundProbesMispricedNeighbor(t *testing.T) {
	curve := vCurve(4096, 1)
	model := func(v int64) float64 {
		if v == 72 {
			return 0.5 * curve(v) // under the margin, and far under the bound
		}
		return curve(v)
	}
	run := func(bound func(v int64) float64) (Outcome, []int64) {
		var probed []int64
		out, err := Optimum(context.Background(), Config{
			Heights: boundLadder, SeedV: 60, Model: model,
			Probe: recordingProbe(curve, &probed), Bound: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, probed
	}
	plain, _ := run(nil)
	bounded, boundedProbed := run(func(v int64) float64 { return 0.999 * curve(v) })
	if !containsHeight(boundedProbed, 72) {
		t.Errorf("mispriced V=72 elided: probes %v", boundedProbed)
	}
	if bounded != plain {
		t.Errorf("bounded %+v != no-bound %+v", bounded, plain)
	}
	if bounded.Tier != TierExact {
		t.Errorf("mispriced neighbor certified: %+v, want the exact tier", bounded)
	}
}

func containsHeight(vs []int64, v int64) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}

// fig11Grid is the paper's Fig. 11 space, where the bound elides a walk
// probe of the blocking query.
var fig11Grid = model.Grid3D{I: 32, J: 32, K: 4096, PI: 4, PJ: 4}

// modeCap is the capability the experiments pair with each schedule.
func modeCap(mode sim.Mode) sim.Capability {
	if mode == sim.Blocking {
		return sim.CapNone
	}
	return sim.CapDMA
}

// TestForGridBoundCacheIndependent: the walk's elisions read the query
// alone, so the same query on a fresh cache and on one pre-warmed with
// every rung returns the same V, T, tier and probe count, on a grid where
// the bound elides a probe.
func TestForGridBoundCacheIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure grid")
	}
	ctx := context.Background()
	m := model.PentiumCluster()
	heights := ladder(1, fig11Grid.K)
	elided := false
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		warm := sim.NewCache()
		for _, v := range heights {
			if _, err := warm.SimulateGridCtx(ctx, fig11Grid, v, m, mode, modeCap(mode), sim.GridOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		var outs [2]Outcome
		for i, c := range []*sim.Cache{sim.NewCache(), warm} {
			out, err := Optimum(ctx, ForGrid(ctx, fig11Grid, m, mode, modeCap(mode), c, heights))
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = out
		}
		if cold, hot := outs[0], outs[1]; cold.V != hot.V || math.Float64bits(cold.T) != math.Float64bits(hot.T) ||
			cold.Tier != hot.Tier || cold.Probes != hot.Probes {
			t.Errorf("%s: fresh cache %+v != warm cache %+v", mode, cold, hot)
		}
		cfg := ForGrid(ctx, fig11Grid, m, mode, modeCap(mode), warm, heights)
		cfg.Bound = nil
		plain, err := Optimum(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		elided = elided || outs[0].Probes < plain.Probes
	}
	if !elided {
		t.Error("the bound elided no probe: the test no longer covers the elision")
	}
}

// TestForGridBoundMatchesNoBound: on the experiments package's randomized
// machine/grid population (the same seed and scaling) plus the paper's
// machine on the Fig. 9-11 grids, ForGrid's Config with its Bound and the
// same Config with Bound nil return the same V, T and tier, and the bound
// never adds a probe. The random grids are communication-bound and the
// model elision already skips their neighbors; the paper's grids are where
// the bound saves probes, so some must be saved.
func TestForGridBoundMatchesNoBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure grids")
	}
	type query struct {
		g model.Grid3D
		m model.Machine
	}
	paper := model.PentiumCluster()
	queries := []query{
		{model.Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}, paper},
		{model.Grid3D{I: 16, J: 16, K: 32768, PI: 4, PJ: 4}, paper},
		{fig11Grid, paper},
	}
	rng := rand.New(rand.NewSource(42))
	dims := []int64{8, 16, 32}
	for trial := 0; trial < 10; trial++ {
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
		queries = append(queries, query{g, m})
	}
	ctx := context.Background()
	saved := 0
	for _, q := range queries {
		heights := ladder(1, q.g.K)
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			c := sim.NewCache()
			bounded, err := Optimum(ctx, ForGrid(ctx, q.g, q.m, mode, modeCap(mode), c, heights))
			if err != nil {
				t.Fatal(err)
			}
			cfg := ForGrid(ctx, q.g, q.m, mode, modeCap(mode), c, heights)
			cfg.Bound = nil
			plain, err := Optimum(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bounded.V != plain.V || math.Float64bits(bounded.T) != math.Float64bits(plain.T) || bounded.Tier != plain.Tier {
				t.Errorf("%+v %s: bound %+v != no bound %+v", q.g, mode, bounded, plain)
			}
			if bounded.Probes > plain.Probes {
				t.Errorf("%+v %s: the bound added probes: %d with it, %d without", q.g, mode, bounded.Probes, plain.Probes)
			}
			saved += plain.Probes - bounded.Probes
		}
	}
	if saved == 0 {
		t.Error("the bound saved no probe on any query")
	}
	t.Logf("the bound saved %d probes over %d queries", saved, 2*len(queries))
}
