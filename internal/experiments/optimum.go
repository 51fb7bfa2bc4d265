package experiments

import (
	"context"
	"sort"

	"repro/internal/estimate"
	"repro/internal/sim"
)

// This file is the sweep-level optimum search. Its entry points:
//
//   - OptimumDetailCtx: the tiered search (internal/estimate) at ladder
//     granularity over OptimumHeights. The analytic closed form seeds a
//     bracket, a few targeted DES probes localize the minimum, and a
//     certification step either vouches for the answer or falls back to
//     the exact tier — so the result is always the exact ladder argmin,
//     usually at a fraction of the DES evaluations. The estimate.Outcome
//     says which tier answered.
//   - OptimumExactCtx: the exact ladder argmin by branch and bound — every
//     OptimumHeights rung that can win, judged by the closed-form
//     sim.GridLowerBound, simulated on the evalAll pool, earliest minimum
//     wins. The tests hold it to the unpruned argmin of the sequential
//     reference over the same rungs.
//   - OptimumRefinedCtx: the tiered search plus the multiplicative
//     refinement pass around the winning rung, the search the CLIs and
//     figures print (finer-than-ladder granularity).
//
// Each aborts at DES-evaluation granularity when its context is cancelled
// or its deadline expires — the contract the planning service relies on to
// shed abandoned queries.

// OptimumHeights returns the candidate ladder the optimum search ranges
// over: the sweep's own Heights extended with the full geometric ladder
// 1..K, deduped and sorted. The figures' sweeps span Ladder(4, K/4), so
// the extension only adds extreme rungs that never win; extending the
// range keeps the optimum search meaningful for sweeps defined on a
// narrow window (e.g. the autotune example).
func (s Sweep) OptimumHeights() []int64 {
	merged := append(append([]int64(nil), s.Heights...), Ladder(1, s.Grid.K)...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	w := 0
	for i, v := range merged {
		if i == 0 || v != merged[w-1] {
			merged[w] = v
			w++
		}
	}
	return merged[:w]
}

// OptimumDetailCtx finds the simulated-optimal tile height among
// OptimumHeights for the given mode via the tiered search: identical to
// OptimumExactCtx's answer, but typically a handful of DES probes instead
// of every rung that can win. The estimate.Outcome says which tier
// answered, how many probes the tiered stage issued, and why the exact
// tier ran if it did. Set Sweep.Exact to force the exact tier. A cancelled
// or expired ctx aborts the search between DES probes with ctx.Err().
func (s Sweep) OptimumDetailCtx(ctx context.Context, mode sim.Mode) (estimate.Outcome, error) {
	s.Cache = cacheOr(s.Cache) // the tiered stage and the exact tier share one memo
	if s.Exact {
		v, t, err := s.OptimumExactCtx(ctx, mode)
		if err != nil {
			return estimate.Outcome{}, err
		}
		return estimate.Outcome{V: v, T: t, Tier: estimate.TierExact, FallbackReason: "forced"}, nil
	}
	cfg := estimate.ForGrid(ctx, s.Grid, s.Machine, mode, s.ModeCap(mode), s.Cache, s.OptimumHeights())
	cfg.Exact = func() (int64, float64, error) {
		return s.OptimumExactCtx(ctx, mode)
	}
	return estimate.Optimum(ctx, cfg)
}

// OptimumExactCtx is the exact tier: every OptimumHeights rung that can
// win simulated (on the evalAll pool), earliest height of minimal makespan
// wins — bit-identical to the sequential reference over every rung plus an
// argmin. It is a branch-and-bound over the rungs. Every rung is priced by
// sim.GridLowerBound; the rung of smallest bound (earliest on ties) is
// simulated first and its makespan becomes the incumbent. Only the rungs
// whose bound does not exceed the incumbent are then simulated, and the
// earliest minimum among them wins. That is the unpruned argmin: a pruned
// rung has makespan ≥ bound > incumbent ≥ the minimum, so it neither is
// the minimum nor ties it. The kept set depends only on the incumbent, so
// the evaluation count is the same for every worker count.
func (s Sweep) OptimumExactCtx(ctx context.Context, mode sim.Mode) (vOpt int64, tOpt float64, err error) {
	s.Cache = cacheOr(s.Cache) // the incumbent's evaluation is reused by the kept pass
	heights := s.OptimumHeights()
	if len(heights) == 0 {
		return -1, 0, nil
	}
	cap, o := s.ModeCap(mode), sim.GridOpts{Metrics: s.Metrics}
	bounds := make([]float64, len(heights))
	first := 0
	for i, v := range heights {
		bounds[i] = sim.GridLowerBound(s.Grid, v, s.Machine, mode, cap, o)
		if bounds[i] < bounds[first] {
			first = i
		}
	}
	inc, err := s.evalHeights(ctx, mode, heights[first:first+1])
	if err != nil {
		return 0, 0, err
	}
	var kept []int64
	for i, v := range heights {
		if !(bounds[i] > inc[0].Makespan) {
			kept = append(kept, v)
		}
	}
	rs, err := s.evalHeights(ctx, mode, kept)
	if err != nil {
		return 0, 0, err
	}
	best, bestT := int64(-1), 0.0
	considerHeights(kept, rs, &best, &bestT)
	return best, bestT, nil
}

// OptimumRefinedCtx sharpens OptimumDetailCtx below ladder granularity:
// the multiplicative Refine window around the winning rung is evaluated
// and the overall earliest minimum returned. This is the search the
// figures, traces and examples print; on the paper's grids the tiered
// ladder stage picks the same rung an exhaustive ladder pass would.
// Refinement rungs that duplicate ladder rungs are skipped — they could
// never win the strict-improvement comparison.
func (s Sweep) OptimumRefinedCtx(ctx context.Context, mode sim.Mode) (vOpt int64, tOpt float64, err error) {
	s.Cache = cacheOr(s.Cache) // share the ladder stage's probes with the refine pass
	out, err := s.OptimumDetailCtx(ctx, mode)
	if err != nil {
		return 0, 0, err
	}
	best, bestT := out.V, out.T
	seen := make(map[int64]bool)
	for _, v := range s.OptimumHeights() {
		seen[v] = true
	}
	var refined []int64
	for _, v := range Refine(best, 1, s.Grid.K, 13) {
		if !seen[v] {
			refined = append(refined, v)
		}
	}
	rs, err := s.evalHeights(ctx, mode, refined)
	if err != nil {
		return 0, 0, err
	}
	considerHeights(refined, rs, &best, &bestT)
	return best, bestT, nil
}

// evalHeights simulates one mode at each height through evalGrid on the
// sweep's cache.
func (s Sweep) evalHeights(ctx context.Context, mode sim.Mode, heights []int64) ([]sim.Result, error) {
	pts := make([]point, len(heights))
	for i, v := range heights {
		pts[i] = point{s.Grid, v, mode, s.ModeCap(mode), sim.GridOpts{Metrics: s.Metrics}}
	}
	return evalGrid(ctx, s.Cache, s.ID, s.Machine, pts)
}

// considerHeights scans heights in input order with a strict-improvement
// update, matching the sequential search exactly: the earliest height of
// minimal makespan wins.
func considerHeights(heights []int64, rs []sim.Result, best *int64, bestT *float64) {
	for i, v := range heights {
		if t := rs[i].Makespan; *best < 0 || t < *bestT {
			*best, *bestT = v, t
		}
	}
}
