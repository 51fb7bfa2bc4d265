package main

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sim"
)

// runOptimum implements -optimum: the tiered optimum-tile-height query for
// a 3-D rectangular space on a PIxPJ processor grid. For each schedule it
// prints the analytic seed, the answer, which tier produced it, and what
// the query cost in DES evaluations — the planning-service workflow the
// tiered estimator exists for.
func runOptimum(sizes []int64, m model.Machine) error {
	if len(sizes) != 3 {
		return fmt.Errorf("-optimum needs a 3-D space (IxJxK), got %dD %v", len(sizes), sizes)
	}
	procs, err := parseSizes(*procsFlag)
	if err != nil {
		return fmt.Errorf("-procs: %w", err)
	}
	if len(procs) != 2 {
		return fmt.Errorf("-procs must be PIxPJ, got %v", procs)
	}
	g := model.Grid3D{I: sizes[0], J: sizes[1], K: sizes[2], PI: procs[0], PJ: procs[1]}
	if err := g.Validate(); err != nil {
		return err
	}
	s := experiments.Sweep{
		ID: "tileplan", Title: "tileplan -optimum",
		Grid:    g,
		Heights: experiments.Ladder(4, g.K/4),
		Machine: m,
		Cap:     sim.CapDMA,
		Cache:   sim.NewCache(),
		Exact:   *exactFlag,
	}
	fmt.Printf("optimum tile height for %dx%dx%d on %dx%d processors:\n",
		g.I, g.J, g.K, g.PI, g.PJ)
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		var seed float64
		if mode == sim.Overlapped {
			seed, _, _ = g.OptimalVOverlapAnalytic(m)
		} else {
			seed, _, _ = g.OptimalVBlockingAnalytic(m)
		}
		pre := s.Cache.Stats()
		out, err := s.OptimumDetailCtx(context.Background(), mode)
		if err != nil {
			return err
		}
		post := s.Cache.Stats()
		detail := fmt.Sprintf("tier=%s", out.Tier)
		if out.FallbackReason != "" {
			detail += fmt.Sprintf(" (%s)", out.FallbackReason)
		}
		fmt.Printf("  %-10s V=%-6d t=%.6fs  analytic seed V*≈%.0f  %s, %d DES evaluations\n",
			mode, out.V, out.T, seed, detail, post.Evals-pre.Evals)
	}
	return nil
}
