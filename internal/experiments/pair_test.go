package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/sim"
)

// pairSweeps returns the differential population of the paired-bracket
// test: the paper's Fig. 9-11 spaces and ten random machines drawn as
// TestOptimumMatchesSequentialArgminRandomized draws them.
func pairSweeps() []Sweep {
	out := []Sweep{Fig9(), Fig10(), Fig11()}
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
		out = append(out, Sweep{
			ID: fmt.Sprintf("prop%d", trial), Title: "property",
			Grid: g, Heights: Ladder(4, g.K/4),
			Machine: m, Cap: sim.CapDMA,
		})
	}
	return out
}

// probeRec is one (height, makespan) pair a probe returned.
type probeRec struct {
	v int64
	t float64
}

// TestPairedBracketInvisible is the differential test of the concurrent
// bracket pair: estimate.ForGrid simulates the two bracket rungs at once,
// and that must not show in any result. For every sweep and mode, Optimum
// over ForGrid is compared with the same Config whose Probe is a plain
// sequential cache lookup, each on a fresh cache: the Outcome (V, the bits
// of T, tier, probe count, fallback reason), the sequence of probed
// makespans and the cache counters must all be identical, with nothing
// coalesced, on a cold cache and again on the warmed one. Every probed
// makespan must also respect sim.GridLowerBound — a result under the
// bound would be a bug in the fast path.
func TestPairedBracketInvisible(t *testing.T) {
	ctx := context.Background()
	for _, s := range pairSweeps() {
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			heights := s.OptimumHeights()
			cap := s.ModeCap(mode)
			query := func(c *sim.Cache, sequential bool) (estimate.Outcome, []probeRec) {
				cfg := estimate.ForGrid(ctx, s.Grid, s.Machine, mode, cap, c, heights)
				cfg.Exact = func() (int64, float64, error) {
					exact := s
					exact.Cache = c
					return exact.OptimumExactCtx(ctx, mode)
				}
				probe := cfg.Probe
				if sequential {
					probe = func(v int64) (float64, error) {
						r, err := c.SimulateGridCtx(ctx, s.Grid, v, s.Machine, mode, cap, sim.GridOpts{})
						return r.Makespan, err
					}
				}
				var recs []probeRec
				cfg.Probe = func(v int64) (float64, error) {
					tv, err := probe(v)
					recs = append(recs, probeRec{v, tv})
					return tv, err
				}
				out, err := estimate.Optimum(ctx, cfg)
				if err != nil {
					t.Fatalf("%s %s sequential=%v: %v", s.ID, mode, sequential, err)
				}
				return out, recs
			}
			// The second round repeats the query on the warmed caches, where
			// the upper rung is a hit and the probe does not pair.
			pairedCache, seqCache := sim.NewCache(), sim.NewCache()
			for _, round := range []string{"cold", "warm"} {
				got, gotRecs := query(pairedCache, false)
				want, wantRecs := query(seqCache, true)

				name := s.ID + "/" + mode.String() + "/" + round
				if got.V != want.V || math.Float64bits(got.T) != math.Float64bits(want.T) ||
					got.Tier != want.Tier || got.Probes != want.Probes || got.FallbackReason != want.FallbackReason {
					t.Errorf("%s: paired outcome %+v != sequential %+v", name, got, want)
				}
				if len(gotRecs) != len(wantRecs) {
					t.Errorf("%s: paired probes %v != sequential %v", name, gotRecs, wantRecs)
				} else {
					for i := range gotRecs {
						if gotRecs[i].v != wantRecs[i].v || math.Float64bits(gotRecs[i].t) != math.Float64bits(wantRecs[i].t) {
							t.Errorf("%s: probe %d paired %+v != sequential %+v", name, i, gotRecs[i], wantRecs[i])
						}
					}
				}
				if ps, ss := pairedCache.Stats(), seqCache.Stats(); ps != ss || ps.Coalesced != 0 {
					t.Errorf("%s: paired cache stats %+v != sequential %+v (or coalesced)", name, ps, ss)
				}
				for _, r := range gotRecs {
					if lb := sim.GridLowerBound(s.Grid, r.v, s.Machine, mode, cap, sim.GridOpts{}); r.t < lb {
						t.Errorf("%s: probed makespan %v at V=%d is under the lower bound %v", name, r.t, r.v, lb)
					}
				}
			}
		}
	}
}
